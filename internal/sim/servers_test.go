package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestServersUtilization: two servers each busy for one second integrate to
// two server-seconds, and what is booked past now is not yet busy.
func TestServersUtilization(t *testing.T) {
	s := NewServers(2)
	for i := 0; i < 2; i++ {
		start := s.Grant(0)
		s.Book(start, start+Time(Second))
	}
	if b := s.Busy(Time(Second)); b != 2*time.Second {
		t.Fatalf("busy = %v at 1s, want 2s", b)
	}
	if b := s.Busy(Time(Second / 4)); b != time.Second/2 {
		t.Fatalf("busy = %v at 250ms, want 500ms", b)
	}
}

// TestServersMatchLinearScan: on random bookings the heap grants what a scan
// for the earliest-free server grants, and Busy equals the booked time
// clipped to now.
func TestServersMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(60)
		s := NewServers(n)
		free := make([]Time, n)
		var holds [][2]Time
		now := Time(0)
		for i := 0; i < 500; i++ {
			now += Time(rng.Intn(100))
			e := 0
			for j, f := range free {
				if f < free[e] {
					e = j
				}
			}
			want := max(now, free[e])
			start := s.Grant(now)
			if start != want {
				t.Fatalf("trial %d, booking %d: granted %v, earliest-free server at %v", trial, i, start, want)
			}
			end := start + Time(rng.Intn(1000))
			s.Book(start, end)
			free[e] = end
			holds = append(holds, [2]Time{start, end})
			var busy Time
			for _, h := range holds {
				busy += max(0, min(h[1], now)-h[0])
			}
			if b := s.Busy(now); b != time.Duration(busy) {
				t.Fatalf("trial %d, booking %d: busy %v at %v, want %v", trial, i, b, now, time.Duration(busy))
			}
		}
	}
}

func TestServersBadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a pool of no servers did not panic")
		}
	}()
	NewServers(0)
}
