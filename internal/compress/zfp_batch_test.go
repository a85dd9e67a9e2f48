package compress

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// The batch decoders (zfp_batch.go) must be observationally identical to the
// retained scalar decoders on EVERY input — valid streams, truncated
// streams, and arbitrary corruption — because the batch path falls back to
// the scalar path mid-stream and the two must agree on where each block
// starts. These targets enforce that parity, and the golden test pins the
// encoder output bytes so decode-side restructuring can never drift the
// on-disk format.

func batchSeedCorpus(f *testing.F, tols []float64) {
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	for _, tol := range tols {
		z, _ := NewZFP(tol)
		for _, n := range []int{1, 4, 5, 64, 1000} {
			enc, _ := z.Encode(smoothSignal(n, int64(n)))
			f.Add(enc)
			if len(enc) > 3 {
				f.Add(enc[:len(enc)-3]) // truncated tail
			}
			if len(enc) > 20 {
				mid := append([]byte(nil), enc...)
				mid[len(mid)/2] ^= 0xff // corrupt payload
				f.Add(mid)
			}
		}
	}
}

// FuzzZFPBatchVsScalar checks the 1D batch decoder against the scalar
// reference: identical output floats (bitwise) when both succeed, and
// rejection parity — neither may accept an input the other rejects.
func FuzzZFPBatchVsScalar(f *testing.F) {
	batchSeedCorpus(f, []float64{0, 1e-3, 1e-6})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tol := range []float64{0, 1e-3} {
			z, err := NewZFP(tol)
			if err != nil {
				t.Fatal(err)
			}
			batch, bErr := z.DecodeInto(nil, data)
			scalar, sErr := z.decodeIntoScalar(nil, data)
			if (bErr == nil) != (sErr == nil) {
				t.Fatalf("tol=%g rejection mismatch: batch err=%v scalar err=%v", tol, bErr, sErr)
			}
			if bErr != nil {
				continue
			}
			if len(batch) != len(scalar) {
				t.Fatalf("tol=%g length mismatch: batch %d scalar %d", tol, len(batch), len(scalar))
			}
			for i := range batch {
				if math.Float64bits(batch[i]) != math.Float64bits(scalar[i]) {
					t.Fatalf("tol=%g value %d mismatch: batch %v scalar %v", tol, i, batch[i], scalar[i])
				}
			}
		}
	})
}

// TestZFPEncodedBytesGolden pins the exact encoder output bytes for fixed
// inputs across tolerances. The batch-decode work is decode-side only: any
// change to these hashes means the on-disk format moved and every container
// written by an earlier build would re-read differently.
func TestZFPEncodedBytesGolden(t *testing.T) {
	vals := smoothSignal(4099, 7)
	goldens := []struct {
		tol  float64
		n    int
		hash string
	}{
		{0, 28595, "c4c268788d25e4a4b97fd4c4fe54684985f43622b5e1b9280e7b8627ab8d981c"},
		{0.001, 9400, "86fca41b5028a522c28e6680ca963ab8a35649319d27468190ae12b0cbb9f8f0"},
		{1e-06, 14526, "b8595c5c1882932380339d7bde0d06fd800b3ec8743754c61e8ff14efeefcf3b"},
	}
	for _, g := range goldens {
		t.Run(fmt.Sprintf("1d/tol=%g", g.tol), func(t *testing.T) {
			z, err := NewZFP(g.tol)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := z.Encode(vals)
			if err != nil {
				t.Fatal(err)
			}
			if len(enc) != g.n {
				t.Errorf("encoded length %d, want %d", len(enc), g.n)
			}
			sum := sha256.Sum256(enc)
			if got := hex.EncodeToString(sum[:]); got != g.hash {
				t.Errorf("encoded bytes changed: sha256 %s, want %s", got, g.hash)
			}
		})
	}
}

// TestZFPEncodeAllocs guards the pooled-bitWriter encode diet: the seed
// encoder allocated ~1021 times per chunked op; pooling holds the whole
// encode to a small constant.
func TestZFPEncodeAllocs(t *testing.T) {
	z, err := NewZFP(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	vals := smoothSignal(4096, 3)
	if _, err := z.Encode(vals); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := z.Encode(vals); err != nil {
			t.Fatal(err)
		}
	})
	// One output buffer plus pool slack; the point is it no longer scales
	// with block count (4096 values = 1024 blocks).
	if allocs > 16 {
		t.Fatalf("Encode allocates %v times per op, want <= 16", allocs)
	}
}

// TestZFPDecodeAllocs guards the batch decoder's steady state: decoding into
// a reused buffer must not allocate at all.
func TestZFPDecodeAllocs(t *testing.T) {
	z, err := NewZFP(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := z.Encode(smoothSignal(4096, 3))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 4096)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := z.DecodeInto(dst, enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeInto allocates %v times per op, want 0", allocs)
	}
}
