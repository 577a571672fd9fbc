// Command dpcsh is a tiny interactive shell over a DPC-mounted KVFS: every
// command is executed as a simulated application thread issuing nvme-fs
// requests to the DPU, which converts them to disaggregated KV operations.
// It demonstrates that the standalone file service is genuinely
// POSIX-shaped: mkdir/ls/write/cat/stat/mv/rm all work and virtual time
// advances with every operation.
//
// Usage: dpcsh [-c 'cmd; cmd; ...']   (default: read commands from stdin)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"dpc"
	"dpc/internal/sim"
	"dpc/internal/world"
)

func main() {
	script := flag.String("c", "", "semicolon-separated commands to run non-interactively")
	flag.Parse()

	sys := world.NewSystem(nil)
	cl := sys.KVFSClient()

	run := func(line string) {
		sys.Go(func(p *sim.Proc) { execute(p, sys, cl, line) })
		sys.RunFor(1_000_000_000) // drain up to 1s of virtual time
	}

	if *script != "" {
		for _, line := range strings.Split(*script, ";") {
			line = strings.TrimSpace(line)
			if line != "" {
				fmt.Printf("dpcsh> %s\n", line)
				run(line)
			}
		}
		return
	}

	fmt.Println("DPC shell over KVFS (type 'help'; ctrl-D to exit)")
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("dpcsh> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "exit" || line == "quit" {
			break
		}
		if line != "" {
			run(line)
		}
		fmt.Print("dpcsh> ")
	}
}

// usage is the argument line of each command that takes arguments: given
// fewer than its line names, the command prints the line instead of running.
var usage = map[string]string{
	"mkdir": "mkdir <path>", "write": "write <path> <text>", "cat": "cat <path>", "stat": "stat <path>",
	"mv": "mv <old> <new>", "rm": "rm <path>", "rmdir": "rmdir <path>",
}

func execute(p *sim.Proc, sys *dpc.System, cl *dpc.Client, line string) {
	args := strings.Fields(line)
	cmd := args[0]
	if u, ok := usage[cmd]; ok && len(args) <= strings.Count(u, "<") {
		fmt.Println("  usage:", u)
		return
	}
	// fail reports a non-nil err and says whether there was one.
	fail := func(err error) bool {
		if err != nil {
			fmt.Println("  error:", err)
		}
		return err != nil
	}
	switch cmd {
	case "help":
		fmt.Println("  mkdir <path> | ls <path> | write <path> <text> | cat <path>")
		fmt.Println("  stat <path> | mv <old> <new> | rm <path> | rmdir <path> | time")
	case "time":
		fmt.Printf("  virtual time: %v\n", sys.Now())
	case "mkdir":
		fail(cl.Mkdir(p, 0, args[1]))
	case "ls":
		path := "/"
		if len(args) > 1 {
			path = args[1]
		}
		ents, err := cl.Readdir(p, 0, path)
		if fail(err) {
			return
		}
		for _, e := range ents {
			fmt.Printf("  %-30s ino=%d\n", e.Name, e.Ino)
		}
	case "write":
		f, err := cl.Open(p, 0, args[1])
		if err != nil {
			f, err = cl.Create(p, 0, args[1])
		}
		data := []byte(strings.Join(args[2:], " "))
		if fail(err) || fail(f.Write(p, 0, 0, data, true)) {
			return
		}
		fmt.Printf("  wrote %d bytes\n", len(data))
	case "cat":
		f, err := cl.Open(p, 0, args[1])
		if fail(err) {
			return
		}
		data, err := f.Read(p, 0, 0, int(f.Size), true)
		if fail(err) {
			return
		}
		fmt.Printf("  %s\n", data)
	case "stat":
		st, err := cl.StatPath(p, 0, args[1])
		if fail(err) {
			return
		}
		kind := "file"
		if st.Mode == 2 {
			kind = "dir"
		}
		fmt.Printf("  ino=%d type=%s size=%d\n", st.Ino, kind, st.Size)
	case "mv":
		fail(cl.Rename(p, 0, args[1], args[2]))
	case "rm":
		fail(cl.Unlink(p, 0, args[1]))
	case "rmdir":
		fail(cl.Rmdir(p, 0, args[1]))
	default:
		fmt.Printf("  unknown command %q (try help)\n", cmd)
	}
}
