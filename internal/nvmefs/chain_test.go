package nvmefs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"dpc/internal/fault"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/sim"
)

// submitters starts n processes on m, submitter i on queue i mod the
// driver's queues, that each run rounds Submits, alternating an 8-byte-headed write of size bytes with its read-back,
// from virtual time start(i), and returns the log of every completion:
// "s<i>.<round>@<instant>:<status>", in completion order.
func submitters(t *testing.T, m *model.Machine, d *Driver, n, rounds, size int, start func(i int) time.Duration) *strings.Builder {
	t.Helper()
	var log strings.Builder
	for i := range n {
		m.Eng.Go(fmt.Sprintf("s%d", i), func(p *sim.Proc) {
			p.Sleep(start(i))
			payload := bytes.Repeat([]byte{byte(i + 1)}, size)
			for k := range rounds {
				sub := Submission{FileOp: nvme.FileOpWrite, Header: header(uint64(i), uint64(k/2)), Payload: payload}
				if k%2 == 1 {
					sub = Submission{FileOp: nvme.FileOpRead, Header: header(uint64(i), uint64(k/2)), ReadLen: size, RHLen: 1}
				}
				c := d.Submit(p, i%d.Queues(), sub)
				fmt.Fprintf(&log, "s%d.%d@%d:%d ", i, k, p.Now(), c.Status)
				if c.OK() && k%2 == 1 && !bytes.Equal(c.Data, payload) {
					t.Errorf("s%d round %d read back %d bytes, not its write", i, k, len(c.Data))
				}
			}
		})
	}
	return &log
}

// TestSubmitStagingParksKeepInstants: Submit's submitters complete at the
// instants they had when every step of a submission parked its process,
// also where staging must park: a queue out of buffer slots, out of CIDs,
// with a full SQ, or staging an inline write's PIO burst, and under
// injected faults whose retryable completions back off and resubmit. The
// chain hands such a submitter back inside the event that found the
// problem, so nothing may move.
func TestSubmitStagingParksKeepInstants(t *testing.T) {
	cases := []struct {
		name                string
		cfg                 Config
		rules               []fault.Rule
		subs, rounds, bytes int
		want                string
	}{
		{"slots", Config{Queues: 1, Depth: 16, SlotsPerQ: 2, MaxIO: 64 * 1024, RHCap: 64}, nil, 6, 4, 8192, "s0.0@17150:0 s3.0@20822:0 s1.0@24494:0 s4.0@28166:0 s2.0@31838:0 s5.0@35510:0 s0.1@39183:0 s3.1@45095:0 s1.1@47999:0 s4.1@53911:0 s2.1@56815:0 s5.1@62727:0 s0.2@65626:0 s3.2@72302:0 s1.2@75974:0 s4.2@79646:0 s2.2@83318:0 s5.2@86990:0 s0.3@90663:0 s3.3@96575:0 s1.3@99479:0 s4.3@105391:0 s2.3@108295:0 s5.3@114203:0 retries 0"},
		{"cids", Config{Queues: 1, Depth: 3, SlotsPerQ: 8, MaxIO: 64 * 1024, RHCap: 64}, nil, 6, 4, 8192, "s0.0@17150:0 s3.0@20822:0 s1.0@24494:0 s4.0@28166:0 s2.0@31838:0 s5.0@35510:0 s0.1@39187:0 s3.1@42095:0 s1.1@45003:0 s4.1@47911:0 s2.1@50819:0 s5.1@53727:0 s0.2@56630:0 s3.2@60302:0 s1.2@63974:0 s4.2@67646:0 s2.2@71318:0 s5.2@74990:0 s0.3@78667:0 s3.3@81575:0 s1.3@84483:0 s4.3@87391:0 s2.3@90299:0 s5.3@93203:0 retries 0"},
		{"sq", Config{Queues: 1, Depth: 8, SlotsPerQ: 16, MaxIO: 64 * 1024, RHCap: 64}, nil, 12, 2, 8192, "s0.0@17150:0 s3.0@20822:0 s6.0@24494:0 s9.0@28166:0 s1.0@31838:0 s4.0@35510:0 s7.0@39182:0 s10.0@42854:0 s2.0@46526:0 s5.0@50198:0 s8.0@53870:0 s11.0@57542:0 s0.1@61219:0 s3.1@64127:0 s6.1@67035:0 s9.1@69943:0 s1.1@72851:0 s4.1@75759:0 s7.1@78667:0 s10.1@81575:0 s2.1@84483:0 s5.1@87391:0 s8.1@90299:0 s11.1@93203:0 retries 0"},
		{"inline", Config{Queues: 4, Depth: 16, SlotsPerQ: 8, MaxIO: 64 * 1024, RHCap: 64, InlineMax: 512}, nil, 4, 4, 256, "s0.0@16556:0 s3.0@16560:0 s1.0@16656:0 s2.0@16756:0 s0.1@32960:0 s3.1@32983:0 s1.1@33060:0 s2.1@33160:0 s0.2@49516:0 s3.2@49539:0 s1.2@49616:0 s2.2@49716:0 s0.3@65920:0 s3.3@65943:0 s1.3@66020:0 s2.3@66120:0 retries 0"},
		{"retry", faultCfg(), []fault.Rule{
			{Site: fault.SiteComplete, Kind: fault.KindDropCompletion, FromOp: 2, Count: 2},
			{Site: fault.SiteTGT, Kind: fault.KindCorruptSQE, FromOp: 5, Every: 7, Count: 2},
		}, 4, 4, 8192, "s0.0@17150:0 s2.0@28166:0 s2.1@45317:0 s2.2@62467:0 s0.1@66140:0 s2.3@79622:0 s0.2@82521:0 s0.3@99672:0 s1.0@5043289:0 s1.1@5060440:0 s1.2@5077586:0 s3.0@5092281:0 s1.3@5095954:0 s3.1@5109432:0 s3.2@5126578:0 s3.3@5143729:0 retries 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m *model.Machine
			var d *Driver
			if tc.rules != nil {
				m, d, _, _ = newFaultDriver(t, tc.cfg, tc.rules)
			} else {
				m = newTestMachine(t, model.Default())
				d = NewDriver(m, tc.cfg, newVirtualClient().handle)
			}
			log := submitters(t, m, d, tc.subs, tc.rounds, tc.bytes, func(i int) time.Duration { return time.Duration(i%3) * 100 })
			m.Eng.Run()
			got := fmt.Sprintf("%sretries %d", log.String(), d.Retries)
			if got != tc.want {
				t.Errorf("completions:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestResetBetweenSubmitWorkAndStaging: a controller reset re-arms the ring
// while one submitter's submit work is still on the host CPU, so that
// submitter stages against the fresh ring indices; the commands in flight
// at the reset fail with StatusReset and are resubmitted after backoff.
// Every completion keeps the instant it had when submission parked at
// every step.
func TestResetBetweenSubmitWorkAndStaging(t *testing.T) {
	m, d, _, _ := newFaultDriver(t, faultCfg(), nil)
	const resetAt = 20 * time.Microsecond
	// The re-arm comes resetDelay after the reset starts: s0 and s1 have a
	// command in flight then, and the submit work of s2's first straddles it.
	starts := []time.Duration{resetDelay + 14*time.Microsecond, resetDelay + 17*time.Microsecond, resetDelay + 19*time.Microsecond}
	log := submitters(t, m, d, 3, 4, 8192, func(i int) time.Duration { return starts[i] })
	m.Eng.Go("resetter", func(p *sim.Proc) {
		p.Sleep(resetAt)
		d.reset(p)
		fmt.Fprintf(log, "reset@%d ", p.Now())
	})
	m.Eng.Run()
	got := fmt.Sprintf("%sretries %d resets %d", log.String(), d.Retries, d.Resets)
	const want = "reset@220250 s1.0@234150:0 s2.0@237818:0 s1.1@251305:0 s2.1@254213:0 s0.0@257112:0 s1.2@268455:0 s2.2@272127:0 s0.1@275800:0 s1.3@285610:0 s2.3@288518:0 s0.2@291417:0 s0.3@308568:0 retries 1 resets 1"
	if got != want {
		t.Errorf("completions:\n got %s\nwant %s", got, want)
	}
}
