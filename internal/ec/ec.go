// Package ec implements systematic Reed–Solomon erasure coding over GF(2^8).
//
// In the paper, erasure-code calculation is one of the "file semantic
// operations" that the optimized fs-client performs on the host CPU and that
// DPC offloads to the DPU. Both places run this same code on the actual
// payload bytes; only which CPU pool the cycles are charged to differs.
package ec

import (
	"errors"
	"fmt"

	"dpc/internal/gf256"
)

// Coder encodes k data shards into m parity shards and reconstructs missing
// shards from any k survivors.
type Coder struct {
	k, m int
	// matrix is the (k+m) x k encoding matrix; its top k rows are the
	// identity (systematic code).
	matrix [][]byte
}

// ErrTooFewShards is returned when fewer than k shards survive.
var ErrTooFewShards = errors.New("ec: too few shards to reconstruct")

// New creates a Reed–Solomon coder with k data and m parity shards.
// k + m must be <= 256.
func New(k, m int) (*Coder, error) {
	if k <= 0 || m < 0 || k+m > 256 {
		return nil, fmt.Errorf("ec: invalid geometry k=%d m=%d", k, m)
	}
	// Build a Vandermonde matrix and make it systematic by multiplying by
	// the inverse of its top square, guaranteeing every k x k submatrix of
	// the result is invertible.
	vm := vandermonde(k+m, k)
	top := sub(vm, 0, k)
	topInv, err := invert(top)
	if err != nil {
		return nil, fmt.Errorf("ec: building matrix: %w", err)
	}
	return &Coder{k: k, m: m, matrix: matMul(vm, topInv)}, nil
}

// DataShards returns k.
func (c *Coder) DataShards() int { return c.k }

// ParityShards returns m.
func (c *Coder) ParityShards() int { return c.m }

// Split slices data into k equal shards, zero-padding the tail. The returned
// shards reference fresh memory.
func (c *Coder) Split(data []byte) [][]byte {
	shardLen := (len(data) + c.k - 1) / c.k
	if shardLen == 0 {
		shardLen = 1
	}
	shards := make([][]byte, c.k)
	for i := range shards {
		shards[i] = make([]byte, shardLen)
		lo := i * shardLen
		if lo < len(data) {
			hi := lo + shardLen
			if hi > len(data) {
				hi = len(data)
			}
			copy(shards[i], data[lo:hi])
		}
	}
	return shards
}

// Join is the inverse of Split: it concatenates the k data shards and trims
// to size bytes.
func (c *Coder) Join(shards [][]byte, size int) []byte {
	return c.AppendJoin(make([]byte, 0, size), shards, size)
}

// AppendJoin is Join appending to out.
func (c *Coder) AppendJoin(out []byte, shards [][]byte, size int) []byte {
	for i, end := 0, len(out)+size; i < c.k && len(out) < end; i++ {
		s := shards[i]
		if need := end - len(out); len(s) > need {
			s = s[:need]
		}
		out = append(out, s...)
	}
	return out
}

// Encode computes the m parity shards for the k data shards. All shards must
// have equal length; the returned slice holds only the parity shards.
func (c *Coder) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("ec: got %d data shards, want %d", len(data), c.k)
	}
	n := len(data[0])
	for i, s := range data {
		if len(s) != n {
			return nil, fmt.Errorf("ec: shard %d length %d != %d", i, len(s), n)
		}
	}
	parity := make([][]byte, c.m)
	for p := 0; p < c.m; p++ {
		parity[p] = make([]byte, n)
		row := c.matrix[c.k+p]
		for d := 0; d < c.k; d++ {
			gf256.MulAddSlice(row[d], data[d], parity[p])
		}
	}
	return parity, nil
}

// Reconstruct fills in nil entries of shards (length k+m: data shards first,
// then parity) using the surviving shards. At least k shards must be
// non-nil. Reconstructed shards are written back into the slice.
func (c *Coder) Reconstruct(shards [][]byte) error {
	if len(shards) != c.k+c.m {
		return fmt.Errorf("ec: got %d shards, want %d", len(shards), c.k+c.m)
	}
	var have []int
	shardLen := -1
	for i, s := range shards {
		if s != nil {
			have = append(have, i)
			if shardLen == -1 {
				shardLen = len(s)
			} else if len(s) != shardLen {
				return fmt.Errorf("ec: shard %d length %d != %d", i, len(s), shardLen)
			}
		}
	}
	if len(have) < c.k {
		return ErrTooFewShards
	}
	have = have[:c.k]

	// Solve for the data shards: rows of the encoding matrix for the
	// surviving shards, inverted, times the survivors.
	rows := make([][]byte, c.k)
	for i, idx := range have {
		rows[i] = c.matrix[idx]
	}
	dec, err := invert(rows)
	if err != nil {
		return fmt.Errorf("ec: singular decode matrix: %w", err)
	}
	dataOut := make([][]byte, c.k)
	needData := false
	for d := 0; d < c.k; d++ {
		if shards[d] == nil {
			needData = true
		}
	}
	if needData {
		for d := 0; d < c.k; d++ {
			if shards[d] != nil {
				dataOut[d] = shards[d]
				continue
			}
			out := make([]byte, shardLen)
			for j, idx := range have {
				gf256.MulAddSlice(dec[d][j], shards[idx], out)
			}
			dataOut[d] = out
			shards[d] = out
		}
	} else {
		copy(dataOut, shards[:c.k])
	}
	// Re-encode any missing parity from the (now complete) data shards.
	for p := 0; p < c.m; p++ {
		if shards[c.k+p] != nil {
			continue
		}
		out := make([]byte, shardLen)
		row := c.matrix[c.k+p]
		for d := 0; d < c.k; d++ {
			gf256.MulAddSlice(row[d], dataOut[d], out)
		}
		shards[c.k+p] = out
	}
	return nil
}

// Verify recomputes parity from the data shards and reports whether it
// matches the provided parity shards.
func (c *Coder) Verify(shards [][]byte) (bool, error) {
	if len(shards) != c.k+c.m {
		return false, fmt.Errorf("ec: got %d shards, want %d", len(shards), c.k+c.m)
	}
	parity, err := c.Encode(shards[:c.k])
	if err != nil {
		return false, err
	}
	for p := 0; p < c.m; p++ {
		got := shards[c.k+p]
		if len(got) != len(parity[p]) {
			return false, nil
		}
		for i := range got {
			if got[i] != parity[p][i] {
				return false, nil
			}
		}
	}
	return true, nil
}

// EncodeCost returns an abstract cycle count for encoding n payload bytes,
// used by the simulation to charge CPU time. Reed–Solomon encode performs
// m multiply-adds per data byte; ~4 cycles per byte per parity shard is a
// reasonable table-driven software cost.
func (c *Coder) EncodeCost(n int) int64 {
	return int64(n) * int64(c.m) * 4
}

// ---- matrix helpers ----

func vandermonde(rows, cols int) [][]byte {
	m := make([][]byte, rows)
	for r := range m {
		m[r] = make([]byte, cols)
		for c := range m[r] {
			// element = r^c
			e := byte(1)
			for j := 0; j < c; j++ {
				e = gf256.Mul(e, byte(r))
			}
			m[r][c] = e
		}
	}
	return m
}

func sub(m [][]byte, lo, hi int) [][]byte {
	out := make([][]byte, hi-lo)
	for i := range out {
		out[i] = append([]byte(nil), m[lo+i]...)
	}
	return out
}

func matMul(a, b [][]byte) [][]byte {
	rows, inner, cols := len(a), len(b), len(b[0])
	out := make([][]byte, rows)
	for r := 0; r < rows; r++ {
		out[r] = make([]byte, cols)
		for c := 0; c < cols; c++ {
			var v byte
			for i := 0; i < inner; i++ {
				v = gf256.Add(v, gf256.Mul(a[r][i], b[i][c]))
			}
			out[r][c] = v
		}
	}
	return out
}

// invert returns the inverse of square matrix m via Gauss–Jordan.
func invert(m [][]byte) ([][]byte, error) {
	n := len(m)
	// Augment with identity.
	aug := make([][]byte, n)
	for i := range aug {
		aug[i] = make([]byte, 2*n)
		copy(aug[i], m[i])
		aug[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if aug[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, errors.New("singular matrix")
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		// Scale pivot row.
		inv := gf256.Inv(aug[col][col])
		for c := 0; c < 2*n; c++ {
			aug[col][c] = gf256.Mul(aug[col][c], inv)
		}
		// Eliminate other rows.
		for r := 0; r < n; r++ {
			if r == col || aug[r][col] == 0 {
				continue
			}
			f := aug[r][col]
			for c := 0; c < 2*n; c++ {
				aug[r][c] = gf256.Add(aug[r][c], gf256.Mul(f, aug[col][c]))
			}
		}
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = aug[i][n:]
	}
	return out, nil
}
