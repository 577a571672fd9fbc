package kv

import (
	"bytes"
	"hash/fnv"
	"testing"

	"dpc/internal/sim"
)

// The store owns its values: what Get and GetInto return is the caller's
// and is not disturbed by a later in-place Put of the same key and length.
func TestGetResultSurvivesOverwrite(t *testing.T) {
	s := NewStore()
	old := bytes.Repeat([]byte{0x11}, 64)
	s.Put([]byte("k"), old)
	got, _ := s.Get([]byte("k"))
	into := make([]byte, 64)
	s.GetInto([]byte("k"), 0, into)
	s.Put([]byte("k"), bytes.Repeat([]byte{0x22}, 64))
	if !bytes.Equal(got, old) || !bytes.Equal(into, old) {
		t.Fatal("a returned value changed under a later Put: the store handed out its own bytes")
	}
	if v, _ := s.Get([]byte("k")); v[0] != 0x22 {
		t.Fatalf("overwrite lost: %x", v[0])
	}
}

func TestPutEmptyOverExistingKeepsKey(t *testing.T) {
	s := NewStore()
	s.Put([]byte("k"), []byte("value"))
	s.Put([]byte("k"), nil)
	if v, ok := s.Get([]byte("k")); !ok || len(v) != 0 {
		t.Fatalf("Get after empty overwrite = %q, %v; want empty, found", v, ok)
	}
	if n, ok := s.GetInto([]byte("k"), 0, make([]byte, 4)); !ok || n != 0 {
		t.Fatalf("GetInto after empty overwrite = %d, %v", n, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// GetInto copies the window [off, off+len(dst)) that the value covers, leaves
// the rest of dst alone and always reports the value's full length.
func TestGetIntoWindow(t *testing.T) {
	s := NewStore()
	val := []byte("0123456789")
	s.Put([]byte("k"), val)
	for _, c := range []struct {
		off, dst int
		want     string
	}{
		{0, 10, "0123456789"},
		{0, 4, "0123"},                 // dst shorter than the value
		{3, 4, "3456"},                 // interior window
		{6, 8, "6789\xDB\xDB\xDB\xDB"}, // dst runs past the value's end
		{0, 14, "0123456789\xDB\xDB\xDB\xDB"},
		{10, 3, "\xDB\xDB\xDB"}, // window starts at the end
		{25, 3, "\xDB\xDB\xDB"}, // and beyond it
	} {
		dst := bytes.Repeat([]byte{0xDB}, c.dst)
		n, ok := s.GetInto([]byte("k"), c.off, dst)
		if !ok || n != len(val) || string(dst) != c.want {
			t.Errorf("GetInto(off %d, %d bytes) = %d, %v, %q; want %d, true, %q", c.off, c.dst, n, ok, dst, len(val), c.want)
		}
	}
	dst := []byte{0xDB}
	if n, ok := s.GetInto([]byte("missing"), 0, dst); ok || n != 0 || dst[0] != 0xDB {
		t.Errorf("GetInto(missing) = %d, %v, dst %x", n, ok, dst)
	}
}

func TestStoreSteadyStateZeroAllocs(t *testing.T) {
	s := NewStore()
	block := make([]byte, 8192)
	for _, k := range []string{"a", "b", "c"} {
		s.Put([]byte(k), block)
	}
	dst := make([]byte, 8192)
	if a := testing.AllocsPerRun(100, func() { s.Put([]byte("b"), block) }); a != 0 {
		t.Errorf("same-length Put over an existing key: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { s.GetInto([]byte("b"), 0, dst) }); a != 0 {
		t.Errorf("GetInto: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { s.GetInto([]byte("missing"), 0, dst) }); a != 0 {
		t.Errorf("GetInto of an absent key: %v allocs, want 0", a)
	}
}

// ShardFor is FNV-1a over the route prefix, written out by hand; it must
// place every key where hash/fnv did.
func TestShardForMatchesFNV(t *testing.T) {
	_, c, _ := newTestCluster(t, 16)
	for _, key := range []string{"", "a", "b\x00\x00\x00\x00\x00\x00\x00\x01", "b\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x07",
		"a\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8", "dAAAABBBBname07", "s\x00\x00\x00\x00\x00\x01\x00\x00", "short", "exactly9b", "probe-17"} {
		h := fnv.New64a()
		h.Write([]byte(key[:min(len(key), RoutePrefixLen)]))
		if want := int(h.Sum64() % 16); c.ShardFor(key) != want {
			t.Errorf("ShardFor(%q) = %d, hash/fnv says %d", key, c.ShardFor(key), want)
		}
	}
}

// Routing a key allocates nothing.
func TestRoutingZeroAllocs(t *testing.T) {
	_, c, _ := newTestCluster(t, 4)
	key := "b\x00\x00\x00\x00\x00\x00\x00\x2a\x00\x00\x00\x01"
	if a := testing.AllocsPerRun(100, func() { c.ShardFor(key) }); a != 0 {
		t.Errorf("ShardFor: %v allocs, want 0", a)
	}
}

// Over the fabric, GetInto fills the caller's buffer, reports the full
// length, costs the virtual time of a Get, and a failed shard leaves the
// destination untouched.
func TestClientGetInto(t *testing.T) {
	e, c, cl := newTestCluster(t, 4)
	val := bytes.Repeat([]byte{0x5A}, 8192)
	e.Go("client", func(p *sim.Proc) {
		cl.Put(p, "block-key", val)
		t0 := p.Now()
		if v, ok := cl.Get(p, "block-key"); !ok || !bytes.Equal(v, val) {
			t.Error("Get mismatch")
		}
		getCost := p.Now() - t0
		dst := bytes.Repeat([]byte{0xDB}, 1000)
		t0 = p.Now()
		n, ok := cl.GetInto(p, "block-key", 4096, dst)
		if !ok || n != len(val) || !bytes.Equal(dst, val[4096:5096]) {
			t.Errorf("GetInto = %d, %v", n, ok)
		}
		if cost := p.Now() - t0; cost != getCost {
			t.Errorf("GetInto of a 1000-byte window took %v, Get of the value %v: the media and the wire carry the whole value either way", cost, getCost)
		}
		if n, ok := cl.GetInto(p, "no-such-key", 0, dst); ok || n != 0 {
			t.Errorf("GetInto(missing) = %d, %v", n, ok)
		}
		c.shards[c.ShardFor("block-key")].node.Down = true
		poisoned := bytes.Repeat([]byte{0xDB}, 16)
		if _, ok := cl.GetInto(p, "block-key", 0, poisoned); ok || !bytes.Equal(poisoned, bytes.Repeat([]byte{0xDB}, 16)) {
			t.Errorf("owning shard down: found=%v, destination %x", ok, poisoned)
		}
	})
	e.Run()
	e.Shutdown()
}

// A finished access's call record goes back to the client's free list
// holding none of the caller's buffers (a Put's value, a GetInto's
// destination) and no reply value (a Get's, a Scan's). A failed shard's down
// reply, which every call to it shares, never joins the free list.
func TestRecycledCallHoldsNoCallerBuffer(t *testing.T) {
	e, c, cl := newTestCluster(t, 4)
	const key = "dAAAABBBBk"
	e.Go("client", func(p *sim.Proc) {
		cl.Put(p, key, []byte("value"))
		cl.GetInto(p, key, 0, make([]byte, 8))
		cl.Get(p, key)
		cl.Scan(p, key[:RoutePrefixLen], 0)
		c.shards[c.ShardFor(key)].node.Down = true
		if _, ok := cl.Get(p, key); ok {
			t.Error("Get from a down shard found the key")
		}
	})
	e.Run()
	e.Shutdown()
	if len(cl.free) != 1 {
		t.Fatalf("%d free call records after one access at a time, want 1", len(cl.free))
	}
	r := cl.free[0]
	if r.req.Val != nil || r.req.Into != nil || r.rep.Val != nil || r.rep.KVs != nil || r.rep.Down {
		t.Errorf("recycled call record holds request %+v, reply %+v", r.req, r.rep)
	}
}
