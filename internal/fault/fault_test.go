package fault

import (
	"testing"
	"time"

	"dpc/internal/sim"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if _, _, ok := in.At(SiteSSDRead); ok {
		t.Fatal("nil injector fired")
	}
	if in.FrozenUntil() != 0 {
		t.Fatal("nil injector frozen")
	}
	in.Disarm() // must not panic
}

func TestRuleGating(t *testing.T) {
	e := sim.NewEngine(1)
	in := New(e, []Rule{
		{Site: SiteTGT, Kind: KindWorkerCrash, FromOp: 3, Every: 2, Count: 2},
	})
	var fired []uint64
	for op := uint64(1); op <= 10; op++ {
		if _, _, ok := in.At(SiteTGT); ok {
			fired = append(fired, op)
		}
	}
	// FromOp 3, Every 2, Count 2: ops 3 and 5 only.
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 5 {
		t.Fatalf("fired at %v, want [3 5]", fired)
	}
	// A different site never fires.
	if _, _, ok := in.At(SiteComplete); ok {
		t.Fatal("wrong site fired")
	}
}

func TestTimeGate(t *testing.T) {
	e := sim.NewEngine(1)
	in := New(e, []Rule{
		{Site: SiteSSDWrite, Kind: KindSSDWriteErr, At: sim.Time(time.Millisecond)},
	})
	e.Go("probe", func(p *sim.Proc) {
		if _, _, ok := in.At(SiteSSDWrite); ok {
			t.Error("fired before its activation time")
		}
		p.Sleep(2 * time.Millisecond)
		if _, _, ok := in.At(SiteSSDWrite); !ok {
			t.Error("did not fire after its activation time")
		}
	})
	e.Run()
}

func TestDisarmKeepsCounting(t *testing.T) {
	e := sim.NewEngine(1)
	in := New(e, []Rule{{Site: SiteTGT, Kind: KindCorruptSQE, FromOp: 4}})
	in.Disarm()
	for i := 0; i < 3; i++ {
		if _, _, ok := in.At(SiteTGT); ok {
			t.Fatal("disarmed injector fired")
		}
	}
	if in.ops[SiteTGT] != 3 {
		t.Fatalf("op counter at %d after 3 disarmed consultations", in.ops[SiteTGT])
	}
}

func TestFreezeSetsUntil(t *testing.T) {
	e := sim.NewEngine(1)
	in := New(e, []Rule{{Site: SiteTGT, Kind: KindFreeze, Delay: 100 * time.Microsecond}})
	e.Go("probe", func(p *sim.Proc) {
		if kind, _, ok := in.At(SiteTGT); !ok || kind != KindFreeze {
			t.Errorf("freeze did not fire (kind=%v)", kind)
		}
		want := sim.Time(100 * time.Microsecond)
		if in.FrozenUntil() != want {
			t.Errorf("FrozenUntil = %v, want %v", in.FrozenUntil(), want)
		}
	})
	e.Run()
}

func TestTortureScheduleDeterministic(t *testing.T) {
	a := TortureSchedule(7)
	b := TortureSchedule(7)
	c := TortureSchedule(8)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at rule %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	// Every rule must be bounded: an unlimited rule could starve retries.
	for i, r := range a {
		if r.Count <= 0 {
			t.Fatalf("rule %d unbounded: %+v", i, r)
		}
	}
}

func TestCountsDeterministicOrder(t *testing.T) {
	e := sim.NewEngine(1)
	in := New(e, []Rule{
		{Site: SiteTGT, Kind: KindCorruptSQE},
		{Site: SiteComplete, Kind: KindDropCompletion},
	})
	in.At(SiteComplete)
	in.At(SiteTGT)
	got := in.Counts()
	if len(got) != 2 || got[0].Kind != KindDropCompletion || got[1].Kind != KindCorruptSQE {
		t.Fatalf("Counts = %+v, want kind-ordered", got)
	}
}
