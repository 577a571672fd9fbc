package nvmefs

import (
	"testing"

	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/sim"
)

// TestTGTRunsAsEvents: nvme-fs parks only the processes that wait. Building
// a driver starts no NVME-TGT process (nothing is scheduled), and under K
// closed-loop submitters over an echo handler that never blocks, the engine
// parks once per Submit: its host-side steps run as a chain of events in
// the submitter's place, the TGT and the response tail as events. A
// submitter that stages with Enqueue, Ring and Wait parks at most three
// times per command: the submit work, the doorbell MMIO and the wait,
// which the completion interrupt ends where the reap it books ends.
func TestTGTRunsAsEvents(t *testing.T) {
	const submitters, rounds = 8, 50
	for _, tc := range []struct {
		name     string
		ownParks float64
		submit   func(d *Driver, p *sim.Proc, qid int, sub Submission) Completion
	}{
		{"Submit", 1, (*Driver).Submit},
		{"Enqueue+Ring+Wait", 3, func(d *Driver, p *sim.Proc, qid int, sub Submission) Completion {
			pend := d.Enqueue(p, qid, sub)
			d.Ring(p, qid)
			return pend.Wait(p)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestMachine(t, model.Default())
			d := NewDriver(m, Config{Queues: 4, Depth: 64, SlotsPerQ: 16, MaxIO: 64 * 1024, RHCap: 256},
				func(p *sim.Proc, req Request) Response {
					return Response{Status: nvme.StatusOK, Data: req.Data, Header: req.Header[:1]}
				})
			if n := m.Eng.PendingEvents(); n != 0 {
				t.Fatalf("NewDriver scheduled %d events: a TGT process was started", n)
			}
			payload := make([]byte, 8192)
			for i := range submitters {
				m.Eng.Go("app", func(p *sim.Proc) {
					for range rounds {
						c := tc.submit(d, p, i%4, Submission{FileOp: nvme.FileOpWrite, Header: make([]byte, 16),
							Payload: payload, ReadLen: 8192, RHLen: 1})
						if !c.OK() || len(c.Data) != 8192 {
							t.Errorf("completion %+v", c.Status)
							return
						}
					}
				})
			}
			m.Eng.Run()
			cmds := float64(submitters * rounds)
			if perCmd := float64(m.Eng.Parks) / cmds; perCmd > tc.ownParks {
				t.Errorf("%.2f engine parks per command, want at most the submitters' own %v", perCmd, tc.ownParks)
			}
			if d.Completed != int64(cmds) {
				t.Errorf("%d commands completed, want %v", d.Completed, cmds)
			}
		})
	}
}
