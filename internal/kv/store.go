// Package kv implements the disaggregated key-value store that backs KVFS:
// a real ordered store (skiplist) holding real bytes, sharded across storage
// nodes reached over the simulated fabric. Keys sharing their first
// RoutePrefixLen bytes land on the same shard, so KVFS's directory prefix
// scans are single-shard operations.
package kv

import (
	"math/rand"
	"strings"
)

const maxLevel = 16

type node struct {
	key  string
	val  []byte
	next [maxLevel]*node
}

// Store is an ordered in-memory key-value store (a skiplist). It is the
// storage engine of one shard; all mutation goes through the shard's server
// process, so no internal locking is needed. index maps every key to its
// list node: point operations (Get, GetInto, an overwriting Put, a Delete
// miss) are one map lookup, and only the ordered ones — Scan, an insert, a
// Delete — walk the list. The point operations take the key's bytes and
// keep none of them: the one key string is the node's, made when a Put
// inserts it.
type Store struct {
	head  *node
	level int
	index map[string]*node
	rng   *rand.Rand
}

// KV is one key-value pair returned by Scan.
type KV struct {
	Key string
	Val []byte
}

// NewStore creates an empty store. The seed makes skiplist tower heights
// deterministic.
func NewStore(seed int64) *Store {
	return &Store{head: &node{}, level: 1, index: map[string]*node{}, rng: rand.New(rand.NewSource(seed))}
}

// Len returns the number of keys.
func (s *Store) Len() int { return len(s.index) }

func (s *Store) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && s.rng.Intn(2) == 0 {
		lvl++
	}
	return lvl
}

// findPrev fills prevs with the rightmost node before key at every level.
func (s *Store) findPrev(key string, prevs *[maxLevel]*node) {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
		prevs[i] = x
	}
}

// seek returns the first node whose key is not below key, or nil.
func (s *Store) seek(key string) *node {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
	}
	return x.next[0]
}

// Get returns a copy of the value for key. The store owns its bytes and
// never hands them out by reference — that is what lets Put overwrite a
// value in place — so the result stays as it is whatever is stored later.
func (s *Store) Get(key []byte) ([]byte, bool) {
	n, ok := s.index[string(key)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), n.val...), true
}

// GetInto copies the value's bytes from offset off into dst, as many as both
// hold, and returns the value's full length: dst[max(0, n-off):] is left
// untouched, so a caller that wants a zero-filled window clears that part.
func (s *Store) GetInto(key []byte, off int, dst []byte) (int, bool) {
	n, ok := s.index[string(key)]
	if !ok {
		return 0, false
	}
	if off < len(n.val) {
		copy(dst, n.val[off:])
	}
	return len(n.val), true
}

// Put stores a copy of val under key, so callers may reuse their buffers.
// An existing key's value is overwritten in place, reusing its buffer: no
// reference to it exists outside the store (see Get).
func (s *Store) Put(key []byte, val []byte) {
	if n, ok := s.index[string(key)]; ok {
		n.val = append(n.val[:0], val...)
		return
	}
	nn := &node{key: string(key), val: append([]byte(nil), val...)}
	var prevs [maxLevel]*node
	s.findPrev(nn.key, &prevs)
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			prevs[i] = s.head
		}
		s.level = lvl
	}
	for i := 0; i < lvl; i++ {
		nn.next[i] = prevs[i].next[i]
		prevs[i].next[i] = nn
	}
	s.index[nn.key] = nn
}

// Delete removes key, reporting whether it existed.
func (s *Store) Delete(key []byte) bool {
	n, ok := s.index[string(key)]
	if !ok {
		return false
	}
	var prevs [maxLevel]*node
	s.findPrev(n.key, &prevs)
	for i := 0; i < s.level; i++ {
		if prevs[i].next[i] == n {
			prevs[i].next[i] = n.next[i]
		}
	}
	for s.level > 1 && s.head.next[s.level-1] == nil {
		s.level--
	}
	delete(s.index, n.key)
	return true
}

// Scan returns up to limit pairs whose keys start with prefix, in key order.
// limit <= 0 means unlimited.
func (s *Store) Scan(prefix string, limit int) []KV {
	var out []KV
	for n := s.seek(prefix); n != nil && strings.HasPrefix(n.key, prefix); n = n.next[0] {
		out = append(out, KV{Key: n.key, Val: append([]byte(nil), n.val...)})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}
