// Command dpccheck runs the differential torture harness: randomized
// operation traces replayed against every file system stack in the repo,
// diffed op-by-op against an in-memory oracle, with periodic full-tree
// verifies and a final flush + fsck.
//
//	dpccheck                          # default: all stacks, 8 seeds, 2000 ops
//	dpccheck -stacks kvfs-cache -seeds 32 -ops 5000 -v
//	dpccheck -stacks localfs -seed 1234 -seeds 1 -shrink=false
//	dpccheck -faults                  # inject the per-seed fault schedule
//	dpccheck -crash                   # crash-restart torture on the WAL stack
//
// With -faults each (stack, seed) pair runs under a deterministic fault
// schedule derived from the seed (dropped completions, corrupt SQEs/CQEs,
// worker crashes, controller freezes, backend errors); the oracle still
// requires every op to succeed with correct bytes or fail cleanly.
//
// With -crash each seed's trace is timed once, then the world is re-run and
// power-failed at seed-chosen instants (biased into fsync group-commit
// windows and metadata ops). The SSD loses its un-barriered volatile
// blocks, the system restarts from the surviving superblock + WAL, and the
// recovered tree is verified against every durability promise the stack
// acknowledged before the crash. Each recovery is then re-run and power-
// failed again at a seed-chosen instant inside it, and that image is
// recovered and verified the same way (the "crash inside recovery" line).
// Failures shrink to a minimal trace with the crash point pinned.
//
// Exit status 1 when any stack diverges from the oracle; the report
// includes a minimal shrunk trace and the command line that reproduces it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"dpc/internal/bufpool"
	"dpc/internal/check"
)

func main() {
	var (
		stacksFlag = flag.String("stacks", "", "comma-separated stacks (default: all of "+strings.Join(check.StackNames(), ",")+")")
		seeds      = flag.Int("seeds", 8, "number of seeds per stack")
		seed       = flag.Int64("seed", 1, "first seed (seeds are seed, seed+1, ...)")
		ops        = flag.Int("ops", 2000, "operations per trace")
		shrink     = flag.Bool("shrink", true, "delta-debug failing traces to a minimal reproducer")
		parallel   = flag.Int("parallel", 0, "concurrent worlds (default GOMAXPROCS)")
		verbose    = flag.Bool("v", false, "log every (stack, seed) result")
		faults     = flag.Bool("faults", false, "inject the deterministic per-seed fault schedule (stacks: "+strings.Join(check.FaultStackNames(), ",")+")")
		crash      = flag.Bool("crash", false, "crash-restart torture: power-fail the WAL stack at seed-chosen instants and verify recovery")
		points     = flag.Int("points", 6, "crash points per seed (with -crash)")
	)
	flag.Parse()
	// Every torture runs with released pool buffers poisoned: a buffer
	// retained past its release then fails the oracle's byte checks.
	bufpool.SetPoison(true)

	if *crash {
		runCrash(*seed, *seeds, *ops, *points, *shrink, *parallel, *verbose)
		return
	}

	cfg := check.SuiteConfig{
		Ops:      *ops,
		Faults:   *faults,
		Shrink:   *shrink,
		Parallel: *parallel,
	}
	if *stacksFlag != "" {
		cfg.Stacks = strings.Split(*stacksFlag, ",")
	}
	for i := 0; i < *seeds; i++ {
		cfg.Seeds = append(cfg.Seeds, *seed+int64(i))
	}
	if *verbose {
		cfg.Logf = log.Printf
	}

	failures, err := check.RunSuite(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if len(failures) == 0 {
		fmt.Printf("ok: %d stacks x %d seeds x %d ops diverged nowhere\n",
			len(cfg.StackList()), len(cfg.Seeds), *ops)
		return
	}
	reportFailures(failures, *ops)
	os.Exit(1)
}

func reportFailures(failures []*check.Failure, ops int) {
	for _, f := range failures {
		fmt.Printf("FAIL %v\n", f)
		faultArg := ""
		if f.Faults {
			faultArg = " -faults"
		}
		fmt.Printf("  reproduce: go run ./cmd/dpccheck -stacks %s -seed %d -seeds 1 -ops %d%s\n",
			f.Stack, f.Seed, ops, faultArg)
		printTrace(f.Trace)
	}
}

func printTrace(trace []check.Op) {
	if len(trace) > 40 {
		fmt.Printf("  trace: %d ops (rerun with -shrink for a minimal one)\n", len(trace))
		return
	}
	fmt.Println("  minimal trace:")
	for _, op := range trace {
		fmt.Printf("    %s\n", op)
	}
}

// runCrash drives the crash-restart torture suite (-crash).
func runCrash(seed int64, seeds, ops, points int, shrink bool, parallel int, verbose bool) {
	// The differential default (2000 ops) is sized for throughput, not for
	// re-running the world once per crash point; shrink it unless the user
	// explicitly asked for a length.
	opsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "ops" {
			opsSet = true
		}
	})
	if !opsSet {
		ops = 240
	}
	cfg := check.CrashSuiteConfig{
		Ops:      ops,
		Points:   points,
		Shrink:   shrink,
		Parallel: parallel,
	}
	for i := 0; i < seeds; i++ {
		cfg.Seeds = append(cfg.Seeds, seed+int64(i))
	}
	if verbose {
		cfg.Logf = log.Printf
	}
	failures, rep, err := check.RunCrashSuite(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crash sweep: %d runs, %d records replayed, %d stale skipped, %d torn tails, %d WAL blocks lost, %d scavenge repairs, slowest recovery %v\n",
		rep.Runs, rep.Replayed, rep.SkippedStale, rep.TornTails, rep.LostWALBlocks, rep.Scavenged, rep.MaxRecovery)
	rc := rep.Recrash
	fmt.Printf("crash inside recovery: %d runs, %d records replayed, %d stale skipped, %d torn tails, %d WAL blocks lost, %d scavenge repairs, slowest recovery %v\n",
		rc.Runs, rc.Replayed, rc.SkippedStale, rc.TornTails, rc.LostWALBlocks, rc.Scavenged, rc.MaxRecovery)
	if len(failures) == 0 {
		fmt.Printf("ok: %d seeds x %d crash points recovered every durability promise\n",
			len(cfg.Seeds), points)
		return
	}
	for _, f := range failures {
		fmt.Printf("FAIL %v\n", f)
		fmt.Printf("  reproduce: go run ./cmd/dpccheck -crash -seed %d -seeds 1 -ops %d -points %d\n",
			f.Seed, ops, points)
		printTrace(f.Trace)
	}
	os.Exit(1)
}
