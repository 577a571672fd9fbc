package cache

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// keysInBucket returns n <ino, lpn> keys of inode ino that hash to bucket b.
func keysInBucket(l Layout, ino uint64, b, n int) [][2]uint64 {
	var keys [][2]uint64
	for lpn := uint64(0); len(keys) < n; lpn++ {
		if l.BucketOf(ino, lpn) == b {
			keys = append(keys, [2]uint64{ino, lpn})
		}
	}
	return keys
}

// findEntryByDecode is findEntry as it was written before it read the bucket
// in place: decode every entry of the bucket and compare the decoded fields.
func findEntryByDecode(h *Host, ino, lpn uint64) int {
	lo, hi := h.L.BucketEntries(h.L.BucketOf(ino, lpn))
	for i := lo; i < hi; i++ {
		e := ReadEntry(h.m.HostMem, h.L, i)
		if e.Status != StatusFree && e.Ino == ino && e.LPN == lpn {
			return i
		}
	}
	return -1
}

// TestFindEntryMatchesDecode: over random bucket states, the in-place
// findEntry returns what decoding every entry returns. The states include
// free entries that still hold the looked-up key (skipped), StatusInvalid
// fill claims (found), matches in a bucket's first and last slot, several
// matches (the first wins), and the table's last bucket.
func TestFindEntryMatchesDecode(t *testing.T) {
	m, l, h, _, _ := newTestCache(t, 1024, 32, CtlConfig{FlushEnabled: false})
	defer m.Eng.Shutdown()
	rng := rand.New(rand.NewSource(29))
	per := l.EntriesPerBucket()
	statuses := []uint32{StatusFree, StatusClean, StatusDirty, StatusInvalid}
	var seen struct{ miss, first, last, claim, freeSkipped int }
	for trial := 0; trial < 2000; trial++ {
		b := rng.Intn(l.Buckets)
		if trial%4 == 0 {
			b = l.Buckets - 1
		}
		target := keysInBucket(l, uint64(1+rng.Intn(3)), b, 1+rng.Intn(4))
		ino, lpn := target[len(target)-1][0], target[len(target)-1][1]
		lo, hi := l.BucketEntries(b)
		for i := lo; i < hi; i++ {
			e := Entry{
				Lock:   uint32(rng.Intn(4)),
				Status: statuses[rng.Intn(len(statuses))],
				Next:   l.chainNext(i),
				Ino:    ino,
				LPN:    lpn,
				Ref:    uint8(rng.Intn(2)),
			}
			switch rng.Intn(8) {
			case 0, 1: // the looked-up key
			case 2:
				e.LPN ^= 1 << uint(rng.Intn(64))
			case 3:
				e.Ino ^= 1 << uint(rng.Intn(64))
			default:
				e.Ino, e.LPN = rng.Uint64(), rng.Uint64()
			}
			WriteEntryMeta(m.HostMem, l, i, e)
		}
		// Forced shapes: the only match in the first or the last slot, a
		// free slot holding the key just ahead of the only match, a
		// StatusInvalid claim; no match at all.
		put := func(i int, status uint32) {
			WriteEntryMeta(m.HostMem, l, i, Entry{Status: status, Next: l.chainNext(i), Ino: ino, LPN: lpn})
		}
		shape := trial % 5
		for i := lo; i < hi && shape > 0; i++ {
			if e := ReadEntry(m.HostMem, l, i); e.Ino == ino && e.LPN == lpn && e.Status != StatusFree {
				e.Status = StatusFree
				WriteEntryMeta(m.HostMem, l, i, e)
			}
		}
		switch shape {
		case 1:
			put(lo, StatusClean)
		case 2:
			put(hi-1, StatusDirty)
		case 3:
			slot := lo + 1 + rng.Intn(per-1)
			put(slot-1, StatusFree)
			put(slot, StatusInvalid)
		}
		want := findEntryByDecode(h, ino, lpn)
		if got := h.findEntry(ino, lpn); got != want {
			t.Fatalf("trial %d, bucket %d, <%d,%d>: findEntry = %d, the decode loop says %d", trial, b, ino, lpn, got, want)
		}
		switch {
		case want < 0:
			seen.miss++
		case want == lo:
			seen.first++
		case want == hi-1:
			seen.last++
		}
		if want >= 0 && ReadEntry(m.HostMem, l, want).Status == StatusInvalid {
			seen.claim++
		}
		for i := lo; i < hi && (want < 0 || i < want); i++ {
			if e := ReadEntry(m.HostMem, l, i); e.Status == StatusFree && e.Ino == ino && e.LPN == lpn {
				seen.freeSkipped++
				break
			}
		}
	}
	if seen.miss == 0 || seen.first == 0 || seen.last == 0 || seen.claim == 0 || seen.freeSkipped == 0 {
		t.Fatalf("a bucket shape went untested: %+v", seen)
	}
}

// BucketOf is FNV-1a over <ino, lpn>, written out by hand; it must place
// every page where hash/fnv did.
func TestBucketOfMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, buckets := range []int{1, 7, 256, 1024} {
		l := NewLayout(0, 4096, buckets*4, buckets)
		for k := 0; k < 500; k++ {
			ino, lpn := rng.Uint64()>>uint(rng.Intn(64)), rng.Uint64()>>uint(rng.Intn(64))
			if k == 0 {
				ino, lpn = 0, ^uint64(0)
			}
			var b [16]byte
			for i := 0; i < 8; i++ {
				b[i] = byte(ino >> (8 * i))
				b[8+i] = byte(lpn >> (8 * i))
			}
			f := fnv.New64a()
			f.Write(b[:])
			if want := int(f.Sum64() % uint64(buckets)); l.BucketOf(ino, lpn) != want {
				t.Fatalf("BucketOf(%d, %d) over %d buckets = %d, hash/fnv says %d", ino, lpn, buckets, l.BucketOf(ino, lpn), want)
			}
		}
	}
}

// TestHostFindEntryZeroAllocs: a hit in the last slot of a full 32-entry
// bucket and a miss on the same bucket allocate nothing.
func TestHostFindEntryZeroAllocs(t *testing.T) {
	m, l, h, _, _ := newTestCache(t, 1024, 32, CtlConfig{FlushEnabled: false})
	defer m.Eng.Shutdown()
	const b = 5
	keys := keysInBucket(l, 9, b, l.EntriesPerBucket()+1)
	lo, hi := l.BucketEntries(b)
	for i := lo; i < hi; i++ {
		k := keys[i-lo]
		WriteEntryMeta(m.HostMem, l, i, Entry{Status: StatusClean, Next: l.chainNext(i), Ino: k[0], LPN: k[1]})
	}
	hit, miss := keys[hi-lo-1], keys[hi-lo]
	if got := h.findEntry(hit[0], hit[1]); got != hi-1 {
		t.Fatalf("hit = %d, want %d", got, hi-1)
	}
	if got := h.findEntry(miss[0], miss[1]); got != -1 {
		t.Fatalf("miss = %d, want -1", got)
	}
	if a := testing.AllocsPerRun(100, func() { h.findEntry(hit[0], hit[1]) }); a != 0 {
		t.Errorf("findEntry hit: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { h.findEntry(miss[0], miss[1]) }); a != 0 {
		t.Errorf("findEntry miss: %v allocs, want 0", a)
	}
}
