// Package kv implements the disaggregated key-value store that backs KVFS:
// a real in-memory store holding real bytes, sharded across storage nodes
// reached over the simulated fabric. Keys sharing their first RoutePrefixLen
// bytes land on the same shard, so KVFS's directory prefix scans are
// single-shard operations.
package kv

import (
	"slices"
	"strings"
)

// Store is an in-memory key-value store: the storage engine of one shard.
// All mutation goes through the shard's server, so no internal locking is
// needed. Its one index maps every key to its value's buffer. A point
// operation (Get, GetInto, Put, Delete) is one map lookup; Scan, which only
// directory listings, rmdir, fsck and the crash dumps call, walks the whole
// index and sorts what matches. The point operations take the key's bytes
// and keep none of them: the one key string is the index's, made when a Put
// inserts it. An overwrite writes through the value's pointer and leaves the
// map entry as it is.
type Store struct {
	index map[string]*[]byte
}

// KV is one key-value pair returned by Scan.
type KV struct {
	Key string
	Val []byte
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{index: map[string]*[]byte{}}
}

// Len returns the number of keys.
func (s *Store) Len() int { return len(s.index) }

// Get returns a copy of the value for key. The store owns its bytes and
// never hands them out by reference — that is what lets Put overwrite a
// value in place — so the result stays as it is whatever is stored later.
func (s *Store) Get(key []byte) ([]byte, bool) {
	v, ok := s.index[string(key)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), *v...), true
}

// GetInto copies the value's bytes from offset off into dst, as many as both
// hold, and returns the value's full length: dst[max(0, n-off):] is left
// untouched, so a caller that wants a zero-filled window clears that part.
func (s *Store) GetInto(key []byte, off int, dst []byte) (int, bool) {
	v, ok := s.index[string(key)]
	if !ok {
		return 0, false
	}
	if off < len(*v) {
		copy(dst, (*v)[off:])
	}
	return len(*v), true
}

// Put stores a copy of val under key, so callers may reuse their buffers.
// An existing key's value is overwritten in place, reusing its buffer: no
// reference to it exists outside the store (see Get).
func (s *Store) Put(key []byte, val []byte) {
	if v, ok := s.index[string(key)]; ok {
		*v = append((*v)[:0], val...)
		return
	}
	v := append([]byte(nil), val...)
	s.index[string(key)] = &v
}

// Delete removes key, reporting whether it existed.
func (s *Store) Delete(key []byte) bool {
	if _, ok := s.index[string(key)]; !ok {
		return false
	}
	delete(s.index, string(key))
	return true
}

// Scan returns up to limit pairs whose keys start with prefix, in key order.
// limit <= 0 means unlimited.
func (s *Store) Scan(prefix string, limit int) []KV {
	var keys []string
	for k := range s.index {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	var out []KV
	for _, k := range keys {
		out = append(out, KV{Key: k, Val: append([]byte(nil), *s.index[k]...)})
	}
	return out
}
