package ec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCoder(t *testing.T, k, m int) *Coder {
	t.Helper()
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randShards(rng *rand.Rand, k, n int) [][]byte {
	out := make([][]byte, k)
	for i := range out {
		out[i] = make([]byte, n)
		rng.Read(out[i])
	}
	return out
}

func TestNewRejectsBadGeometry(t *testing.T) {
	for _, g := range [][2]int{{0, 2}, {-1, 2}, {2, -1}, {200, 57}} {
		if _, err := New(g[0], g[1]); err == nil {
			t.Errorf("New(%d,%d) succeeded", g[0], g[1])
		}
	}
	if _, err := New(4, 0); err != nil {
		t.Errorf("New(4,0) should be allowed (replication-free): %v", err)
	}
}

func TestEncodeVerify(t *testing.T) {
	c := mustCoder(t, 4, 2)
	rng := rand.New(rand.NewSource(1))
	data := randShards(rng, 4, 1024)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(parity) != 2 {
		t.Fatalf("parity count = %d", len(parity))
	}
	// The code is MDS, so every parity coefficient is non-zero: one flipped
	// data byte changes that byte of every parity shard and no other byte.
	data[3][10] ^= 1
	again, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for p := range parity {
		for i := range parity[p] {
			if changed := parity[p][i] != again[p][i]; changed != (i == 10) {
				t.Fatalf("parity %d byte %d changed=%v after flipping data byte 10", p, i, changed)
			}
		}
	}
}

func TestReconstructDataShards(t *testing.T) {
	c := mustCoder(t, 4, 2)
	rng := rand.New(rand.NewSource(2))
	data := randShards(rng, 4, 512)
	parity, _ := c.Encode(data)
	all := append(append([][]byte{}, data...), parity...)

	// Lose two data shards (the maximum for m=2).
	lost := append([][]byte{}, all...)
	want0 := append([]byte(nil), all[0]...)
	want2 := append([]byte(nil), all[2]...)
	lost[0], lost[2] = nil, nil
	if err := c.Reconstruct(lost); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lost[0], want0) || !bytes.Equal(lost[2], want2) {
		t.Fatal("reconstructed data shards differ")
	}
}

func TestReconstructParityShards(t *testing.T) {
	c := mustCoder(t, 3, 2)
	rng := rand.New(rand.NewSource(3))
	data := randShards(rng, 3, 256)
	parity, _ := c.Encode(data)
	all := append(append([][]byte{}, data...), parity...)
	wantP := append([]byte(nil), all[4]...)
	all[4] = nil
	if err := c.Reconstruct(all); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all[4], wantP) {
		t.Fatal("reconstructed parity differs")
	}
}

func TestReconstructMixedLoss(t *testing.T) {
	c := mustCoder(t, 4, 2)
	rng := rand.New(rand.NewSource(4))
	data := randShards(rng, 4, 128)
	parity, _ := c.Encode(data)
	all := append(append([][]byte{}, data...), parity...)
	want1 := append([]byte(nil), all[1]...)
	want5 := append([]byte(nil), all[5]...)
	all[1], all[5] = nil, nil
	if err := c.Reconstruct(all); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all[1], want1) || !bytes.Equal(all[5], want5) {
		t.Fatal("mixed reconstruction differs")
	}
}

func TestReconstructTooFewShards(t *testing.T) {
	c := mustCoder(t, 4, 2)
	rng := rand.New(rand.NewSource(5))
	data := randShards(rng, 4, 64)
	parity, _ := c.Encode(data)
	all := append(append([][]byte{}, data...), parity...)
	all[0], all[1], all[2] = nil, nil, nil // 3 lost > m=2
	if err := c.Reconstruct(all); err != ErrTooFewShards {
		t.Fatalf("err = %v, want ErrTooFewShards", err)
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	c := mustCoder(t, 4, 2)
	for _, n := range []int{0, 1, 3, 4, 5, 1000, 8192} {
		data := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(data)
		shards := c.Split(data)
		if len(shards) != 4 {
			t.Fatalf("Split produced %d shards", len(shards))
		}
		got := c.Join(shards, n)
		if !bytes.Equal(got, data) {
			t.Fatalf("Split/Join round trip failed for n=%d", n)
		}
	}
}

// Property: for random data and any loss pattern of up to m shards,
// reconstruction recovers the original bytes exactly.
func TestReconstructAnyLossProperty(t *testing.T) {
	c := mustCoder(t, 5, 3)
	f := func(seed int64, lossBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		data := randShards(rng, 5, 64)
		parity, err := c.Encode(data)
		if err != nil {
			return false
		}
		all := append(append([][]byte{}, data...), parity...)
		orig := make([][]byte, len(all))
		for i, s := range all {
			orig[i] = append([]byte(nil), s...)
		}
		// Knock out up to m=3 shards chosen by lossBits.
		lost := 0
		for i := 0; i < 8 && lost < 3; i++ {
			if lossBits&(1<<i) != 0 {
				all[i] = nil
				lost++
			}
		}
		if err := c.Reconstruct(all); err != nil {
			return false
		}
		for i := range all {
			if !bytes.Equal(all[i], orig[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode8K(b *testing.B) {
	c, _ := New(4, 2)
	data := c.Split(make([]byte, 8192))
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		rng.Read(data[i])
	}
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}
