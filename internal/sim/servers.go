package sim

import (
	"fmt"
	"time"
)

// Servers is a pool of identical FIFO servers (CPU cores, DMA engines, disk
// channels) kept as computed free times instead of a queue. A caller that
// knows its service time at issue asks Grant when its work starts, books the
// server until its end with Book, and sleeps once, until that end. Granting
// the earliest-free server to each request in issue order is exactly a FIFO
// queue in front of the pool; only which of several same-instant events runs
// first can differ from a pool that parks its waiters.
type Servers struct {
	free   []Time // each server's free instant, a min-heap
	booked Time   // server-nanoseconds booked so far
}

// NewServers creates a pool of n servers, all free at time zero.
func NewServers(n int) *Servers {
	if n <= 0 {
		panic(fmt.Sprintf("sim: %d servers", n))
	}
	return &Servers{free: make([]Time, n)}
}

// Grant returns the instant work issued at now starts: now, or the instant
// the earliest-free server frees if that is later.
func (s *Servers) Grant(now Time) Time { return max(now, s.free[0]) }

// Book holds the earliest-free server from start, which Grant returned,
// until end.
func (s *Servers) Book(start, end Time) {
	s.booked += end - start
	h := s.free
	h[0] = end
	for i, c := 0, 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
	}
}

// Busy returns the server time booked before now, the integral of busy
// servers up to now. Past now each server's bookings follow one another
// with no gap, so what lies past now is its free time minus now.
func (s *Servers) Busy(now Time) time.Duration {
	b := s.booked
	for _, t := range s.free {
		if t > now {
			b -= t - now
		}
	}
	return time.Duration(b)
}
