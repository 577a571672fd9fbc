package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get([]byte("missing")); ok {
		t.Fatal("Get on empty store found something")
	}
	s.Put([]byte("a"), []byte("1"))
	s.Put([]byte("b"), []byte("2"))
	if v, ok := s.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("Get a = %q,%v", v, ok)
	}
	s.Put([]byte("a"), []byte("updated"))
	if v, _ := s.Get([]byte("a")); string(v) != "updated" {
		t.Fatal("overwrite failed")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Delete([]byte("a")) || s.Delete([]byte("a")) {
		t.Fatal("Delete semantics wrong")
	}
	if s.Len() != 1 {
		t.Fatalf("Len after delete = %d", s.Len())
	}
}

func TestStoreValueIsolation(t *testing.T) {
	s := NewStore()
	buf := []byte("hello")
	s.Put([]byte("k"), buf)
	buf[0] = 'X'
	if v, _ := s.Get([]byte("k")); string(v) != "hello" {
		t.Fatal("store aliases caller buffer")
	}
}

func TestScanOrderedWithPrefix(t *testing.T) {
	s := NewStore()
	keys := []string{"dir1/c", "dir1/a", "dir2/x", "dir1/b", "dir10/z"}
	for _, k := range keys {
		s.Put([]byte(k), []byte(k))
	}
	got := s.Scan("dir1/", 0)
	want := []string{"dir1/a", "dir1/b", "dir1/c"}
	if len(got) != len(want) {
		t.Fatalf("Scan = %d results", len(got))
	}
	for i, kv := range got {
		if kv.Key != want[i] {
			t.Fatalf("Scan[%d] = %q, want %q", i, kv.Key, want[i])
		}
	}
	if got := s.Scan("dir1/", 2); len(got) != 2 {
		t.Fatalf("limited scan = %d", len(got))
	}
	if got := s.Scan("nope/", 0); len(got) != 0 {
		t.Fatal("scan of absent prefix returned results")
	}
}

// Property: the store behaves exactly like a map with sorted iteration.
func TestStoreMatchesModelProperty(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint8
		Val  uint16
		Off  uint8
	}
	f := func(ops []op) bool {
		s := NewStore()
		m := map[string][]byte{}
		for _, o := range ops {
			// 32 keys, so that deletes and overwrites meet existing keys.
			key := fmt.Sprintf("k%03d", o.Key%32)
			val := []byte(fmt.Sprintf("v%d", o.Val))
			switch o.Kind % 6 {
			case 0:
				s.Put([]byte(key), val)
				m[key] = val
			case 1:
				got := s.Delete([]byte(key))
				_, want := m[key]
				if got != want {
					return false
				}
				delete(m, key)
			case 2:
				got, ok := s.Get([]byte(key))
				want, wok := m[key]
				if ok != wok || string(got) != string(want) {
					return false
				}
			case 3:
				off, dst := int(o.Off%8), bytes.Repeat([]byte{0xDB}, int(o.Val%8))
				n, ok := s.GetInto([]byte(key), off, dst)
				want, wok := m[key]
				if ok != wok || n != len(want) {
					return false
				}
				w := bytes.Repeat([]byte{0xDB}, len(dst))
				if off < len(want) {
					copy(w, want[off:])
				}
				if !bytes.Equal(dst, w) {
					return false
				}
			case 4: // delete, then insert the same key afresh
				got := s.Delete([]byte(key))
				_, want := m[key]
				if got != want {
					return false
				}
				s.Put([]byte(key), val)
				m[key] = val
			case 5: // the keys of one decade, at most Off%4 of them (0: all)
				prefix, limit := key[:3], int(o.Off%4)
				var want []string
				for k := range m {
					if strings.HasPrefix(k, prefix) {
						want = append(want, k)
					}
				}
				sort.Strings(want)
				if limit > 0 && len(want) > limit {
					want = want[:limit]
				}
				got := s.Scan(prefix, limit)
				if len(got) != len(want) {
					return false
				}
				for i, kv := range got {
					if kv.Key != want[i] || string(kv.Val) != string(m[kv.Key]) {
						return false
					}
				}
			}
		}
		if s.Len() != len(m) {
			return false
		}
		// Full scan must equal sorted model keys.
		var wantKeys []string
		for k := range m {
			wantKeys = append(wantKeys, k)
		}
		sort.Strings(wantKeys)
		scan := s.Scan("k", 0)
		if len(scan) != len(wantKeys) {
			return false
		}
		for i := range scan {
			if scan[i].Key != wantKeys[i] || string(scan[i].Val) != string(m[wantKeys[i]]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreLargeOrdered(t *testing.T) {
	s := NewStore()
	rng := rand.New(rand.NewSource(7))
	n := 5000
	perm := rng.Perm(n)
	for _, i := range perm {
		s.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte{byte(i)})
	}
	if s.Len() != n {
		t.Fatalf("Len = %d", s.Len())
	}
	all := s.Scan("key-", 0)
	if len(all) != n {
		t.Fatalf("scan = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if !(all[i-1].Key < all[i].Key) {
			t.Fatal("scan not ordered")
		}
	}
	if !strings.HasPrefix(all[0].Key, "key-000000") {
		t.Fatalf("first key = %q", all[0].Key)
	}
}
