package nvmefs

import (
	"testing"

	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/sim"
)

// TestTGTRunsAsEvents: the DPU side of nvme-fs parks nothing. Building a
// driver starts no NVME-TGT process (nothing is scheduled), and under K
// closed-loop submitters over an echo handler that never blocks, the engine
// parks no more per command than the submitters themselves may: the submit
// cost, the doorbell MMIO, the wait for the completion and the reap cost.
func TestTGTRunsAsEvents(t *testing.T) {
	const submitters, rounds, ownParks = 8, 50, 4
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
				c := d.Submit(p, i%4, Submission{FileOp: nvme.FileOpWrite, Header: make([]byte, 16),
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
	if perCmd := float64(m.Eng.Parks) / cmds; perCmd > ownParks {
		t.Errorf("%.2f engine parks per command, want at most the submitters' own %d", perCmd, ownParks)
	}
	if d.Completed != int64(cmds) {
		t.Errorf("%d commands completed, want %v", d.Completed, cmds)
	}
}
