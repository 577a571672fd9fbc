package kv

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dpc/internal/fabric"
	"dpc/internal/sim"
)

func newTestCluster(t *testing.T, shards int) (*sim.Engine, *Cluster, *Client) {
	t.Helper()
	e := sim.NewEngine(1)
	net := fabric.NewNetwork(e, fabric.DefaultConfig())
	cfg := DefaultClusterConfig()
	cfg.Shards = shards
	c := NewCluster(e, net, cfg)
	local := net.NewNode("dpu")
	return e, c, c.NewClient(local)
}

func TestClusterPutGetDelete(t *testing.T) {
	e, _, cl := newTestCluster(t, 4)
	e.Go("client", func(p *sim.Proc) {
		cl.Put(p, "hello-key", []byte("world"))
		v, ok := cl.Get(p, "hello-key")
		if !ok || !bytes.Equal(v, []byte("world")) {
			t.Errorf("Get = %q,%v", v, ok)
		}
		if !cl.Delete(p, "hello-key") {
			t.Error("Delete missed")
		}
		if _, ok := cl.Get(p, "hello-key"); ok {
			t.Error("Get after delete found value")
		}
	})
	e.Run()
	e.Shutdown()
}

func TestShardRoutingStableOnPrefix(t *testing.T) {
	_, c, _ := newTestCluster(t, 8)
	// Keys sharing the first RoutePrefixLen bytes go to the same shard.
	base := "dXXXXXXXX" // 9-byte routing prefix
	s0 := c.ShardFor(base + "file-a")
	for _, suffix := range []string{"file-b", "zzz", ""} {
		if c.ShardFor(base+suffix) != s0 {
			t.Fatalf("prefix-sharing keys routed to different shards")
		}
	}
}

func TestScanSingleShard(t *testing.T) {
	e, c, cl := newTestCluster(t, 8)
	prefix := "dAAAABBBB"
	e.Go("client", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			cl.Put(p, fmt.Sprintf("%sname%02d", prefix, i), []byte{byte(i)})
		}
		// Unrelated key under a different prefix.
		cl.Put(p, "dZZZZYYYYother", []byte("x"))
		got := cl.Scan(p, prefix, 0)
		if len(got) != 10 {
			t.Errorf("Scan = %d results", len(got))
		}
		for i := 1; i < len(got); i++ {
			if !(got[i-1].Key < got[i].Key) {
				t.Error("scan unordered")
			}
		}
	})
	e.Run()
	e.Shutdown()
	// The scanned prefix lives entirely on one shard.
	sh := c.ShardFor(prefix)
	if got := c.StoreOf(sh).Scan(prefix, 0); len(got) != 10 {
		t.Fatalf("shard %d holds %d prefix keys, want 10", sh, len(got))
	}
}

func TestScanShortPrefixPanics(t *testing.T) {
	e, _, cl := newTestCluster(t, 2)
	panicked := false
	e.Go("client", func(p *sim.Proc) {
		func() {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			cl.Scan(p, "ab", 0)
		}()
	})
	e.Run()
	e.Shutdown()
	if !panicked {
		t.Fatal("short scan prefix did not panic")
	}
}

func TestClusterTimingReasonable(t *testing.T) {
	e, _, cl := newTestCluster(t, 4)
	var getLat, putLat sim.Time
	e.Go("client", func(p *sim.Proc) {
		start := p.Now()
		cl.Put(p, "timing-key", make([]byte, 8192))
		putLat = p.Now() - start
		start = p.Now()
		cl.Get(p, "timing-key")
		getLat = p.Now() - start
	})
	e.Run()
	e.Shutdown()
	// put: ~10µs net RTT + 22µs media (+ serialization); get: + 45µs media.
	if putLat < sim.Time(30*time.Microsecond) || putLat > sim.Time(60*time.Microsecond) {
		t.Fatalf("put latency = %v", putLat)
	}
	if getLat < sim.Time(55*time.Microsecond) || getLat > sim.Time(90*time.Microsecond) {
		t.Fatalf("get latency = %v", getLat)
	}
}

func TestClusterParallelClients(t *testing.T) {
	e, c, cl := newTestCluster(t, 8)
	const clients = 64
	done := 0
	for i := 0; i < clients; i++ {
		i := i
		e.Go("client", func(p *sim.Proc) {
			key := fmt.Sprintf("k%08d-client", i)
			val := bytes.Repeat([]byte{byte(i)}, 1024)
			cl.Put(p, key, val)
			got, ok := cl.Get(p, key)
			if ok && bytes.Equal(got, val) {
				done++
			}
		})
	}
	e.Run()
	e.Shutdown()
	if done != clients {
		t.Fatalf("done = %d, want %d", done, clients)
	}
	if c.TotalKeys() != clients {
		t.Fatalf("TotalKeys = %d", c.TotalKeys())
	}
	if c.Ops.Total() != 2*clients {
		t.Fatalf("Ops = %d", c.Ops.Total())
	}
}

// A read from a failed shard fails cleanly — a Down reply, not a hang — and
// reviving the shard serves the key again.
func TestDownShardReadFails(t *testing.T) {
	e, c, cl := newTestCluster(t, 8)
	prefix := "dAAAABBBB"
	key := prefix + "item"
	e.Go("setup", func(p *sim.Proc) { cl.Put(p, key, []byte("x")) })
	e.Run()
	c.shards[c.ShardFor(key)].down = true
	var gotOK, finished bool
	var scanned int
	e.Go("reader", func(p *sim.Proc) {
		_, gotOK = cl.Get(p, key)
		scanned = len(cl.Scan(p, prefix, 0))
		finished = true
	})
	e.Run()
	if !finished {
		t.Fatal("reads against a down shard never returned")
	}
	if gotOK || scanned != 0 {
		t.Fatalf("owning shard down: Get found=%v, Scan returned %d items", gotOK, scanned)
	}
	c.shards[c.ShardFor(key)].down = false
	var v []byte
	e.Go("revived", func(p *sim.Proc) { v, gotOK = cl.Get(p, key) })
	e.Run()
	e.Shutdown()
	if !gotOK || string(v) != "x" {
		t.Fatalf("Get after revival = %q, %v", v, gotOK)
	}
}
