package compress

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Batch bit-plane decoding for the zfp-like coder.
//
// The scalar decoder in zfp.go walks the embedded bit-plane stream one bit
// at a time: every group-test bit, every zero of a
// significance run, and every raw coefficient bit is a readBit call with a
// branchy byte-sized refill behind it, and the reader state round-trips
// through memory on every call. That per-bit control flow — not the
// arithmetic — is what pinned zfp decode near 75 MB/s while raw moved GB/s.
//
// The batch decoder below keeps the stream format bit-identical and decodes
// many blocks per call with the bit buffer, bit count, and byte position
// held in locals (registers) for the whole payload. Three mechanisms do the
// work (DESIGN.md §14):
//
//  1. Word-level bitstream reads: the 64-bit bit buffer refills with one
//     unaligned load per ~6 bytes consumed, and a refill at a block or
//     plane boundary guarantees the whole unit — 19 header bits, or a
//     worst-case valid plane (12 bits) — decodes out of the register with
//     no further bounds checks.
//  2. Branchless significance runs: a run of zeros terminated by a one is
//     counted with a single TrailingZeros64 on the buffered word and
//     consumed in one shift, instead of one readBit per zero. Once every
//     coefficient of a block is significant, each remaining plane is a
//     single masked extract.
//  3. Table-driven plane accumulation: each decoded plane is spread into
//     per-coefficient bit lanes through a 16-entry table and ORed into one
//     accumulator word — one shift-or per plane for the whole block — which
//     is flushed into the per-coefficient negabinary words every
//     lane-width planes.
//
// Rare shapes — the last few bytes of a stream, or corrupt streams that
// push the significance prefix past the block width or a run past the
// buffered word — rewind to the block boundary and re-decode that one block
// with the retained scalar decoder, so batch and scalar decode are bit-exact
// on *arbitrary* input: valid, truncated, or corrupt. FuzzZFPBatchVsScalar
// enforces exactly that.

// spread4 maps a 4-bit plane to four 16-bit lanes: bit i of the index lands
// at bit 16*i.
var spread4 = func() (t [16]uint64) {
	for x := range t {
		for i := 0; i < 4; i++ {
			t[x] |= uint64(x>>i&1) << (16 * i)
		}
	}
	return
}()

// compactEven gathers the even-position bits of x into the low half — the
// Morton-decode half-shuffle. The s==1 batch mode uses it to peel every DC
// bit out of a run of event-free planes in one pass instead of one shift
// per plane.
func compactEven(x uint64) uint64 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return x
}

// zfpPlaneCutoff hoists minPlaneFor's tolerance half out of the per-block
// loop: minPlane = clamp(bias - e), with the Ilogb computed once per stream
// instead of once per block. guard is the coder's guard bits (2).
type zfpPlaneCutoff struct {
	bias   int
	hasTol bool
}

func newPlaneCutoff(tol float64, guard int) zfpPlaneCutoff {
	if tol == 0 {
		return zfpPlaneCutoff{}
	}
	return zfpPlaneCutoff{bias: math.Ilogb(tol) + zfpQ - guard, hasTol: true}
}

func (c zfpPlaneCutoff) minPlane(e int) int {
	if !c.hasTol {
		return 0
	}
	p := c.bias - e
	if p < 0 {
		p = 0
	}
	if p > 63 {
		p = 64
	}
	return p
}

// invScale returns math.Ldexp(1, e-zfpQ)/div for a power-of-two div,
// constructing the float directly from its biased exponent when the result
// is a normal number — Ldexp's normalize/clamp path costs ~5% of a decode.
// logDiv is log2(div). Out-of-range exponents (only reachable through
// corrupt headers) take the exact scalar expression so batch and scalar
// decoders keep bit-identical outputs everywhere.
func invScale(e, logDiv int) float64 {
	if exp := e - zfpQ - logDiv; exp >= -1022 && e-zfpQ <= 1023 {
		return math.Float64frombits(uint64(exp+1023) << 52)
	}
	return math.Ldexp(1, e-zfpQ) / float64(int64(1)<<logDiv)
}

// zfpDecodeBlocks decodes the whole 1D payload behind r into out (length =
// stored count; the tail block's padding samples are decoded and discarded).
// It is the production decode path behind ZFP.DecodeInto.
func zfpDecodeBlocks(r *bitReader, tol float64, out []float64) error {
	cut := newPlaneCutoff(tol, 2)
	buf := r.buf
	pos, cur, n := r.pos, r.cur, r.n

	nOut := len(out)
	for i := 0; i < nOut; i += 4 {
		// Refill so the block header (1 + 12 + 6 bits) and the first plane
		// decode without further checks.
		if n <= 56 && pos+8 <= len(buf) {
			cur |= binary.LittleEndian.Uint64(buf[pos:]) << n
			k := (63 - n) >> 3
			pos += int(k)
			n += k * 8
		}
		// Block-boundary snapshot the scalar fallback rewinds to. The
		// refill above moved bytes into the register but consumed nothing,
		// so the snapshot's logical bit offset equals the block start.
		sPos, sCur, sN := pos, cur, n
		if n >= 19 {
			ok := true
			if cur&1 == 0 { // zero block: one bit, the smooth-delta fast path
				cur >>= 1
				n--
				end := i + 4
				if end > nOut {
					end = nOut
				}
				for j := i; j < end; j++ {
					out[j] = 0
				}
				continue
			}
			e := int(cur>>1&0xfff) - 2048
			maxPlane := int(cur >> 13 & 0x3f)
			cur >>= 19
			n -= 19
			minPlane := cut.minPlane(e)

			var u0, u1, u2, u3 uint64
			var acc uint64
			accPlanes := uint(0)
			s := uint(0) // significance prefix
			p := maxPlane
		planes:
			for p >= minPlane {
				if s == 1 {
					// DC-only batch mode: on smooth data most planes have
					// exactly one significant coefficient and no new
					// significance, i.e. they are [dc bit][group 0] pairs.
					// Scan the buffered word's odd (group) bits for the
					// next significance event and peel all the event-free
					// planes before it in one pass: their DC bits sit at
					// even positions and compactEven gathers them together.
					for {
						if n < 56 && pos+8 <= len(buf) {
							cur |= binary.LittleEndian.Uint64(buf[pos:]) << n
							k := (63 - n) >> 3
							pos += int(k)
							n += k * 8
						}
						avail := int(n >> 1)
						if rem := p - minPlane + 1; avail > rem {
							avail = rem
						}
						if avail == 0 {
							ok = false // tail: scalar finishes the block
							break planes
						}
						k := avail
						if w := cur & 0xaaaaaaaaaaaaaaaa; w != 0 {
							if t := bits.TrailingZeros64(w) >> 1; t < k {
								k = t
							}
						}
						if k > 0 {
							// Flush the partial accumulator so the lanes
							// can take direct appends, then append the k
							// DC bits (reversed: first peeled plane is the
							// most significant) and advance the AC lanes
							// by k zero planes.
							m := uint64(1)<<accPlanes - 1
							u0 = u0<<accPlanes | acc&m
							u1 = u1<<accPlanes | acc>>16&m
							u2 = u2<<accPlanes | acc>>32&m
							u3 = u3<<accPlanes | acc>>48&m
							acc, accPlanes = 0, 0
							kk := uint(k)
							dc := compactEven(cur & (1<<(2*kk) - 1))
							u0 = u0<<kk | bits.Reverse64(dc)>>(64-kk)
							u1 <<= kk
							u2 <<= kk
							u3 <<= kk
							cur >>= 2 * kk
							n -= 2 * kk
							p -= k
							if p < minPlane {
								break planes
							}
						}
						if k < avail {
							break // significance event at plane p: general path
						}
					}
				}
				// General single-plane path: a worst-case valid plane is 12
				// bits, so one refill covers it.
				if n < 14 {
					if n <= 56 && pos+8 <= len(buf) {
						cur |= binary.LittleEndian.Uint64(buf[pos:]) << n
						k := (63 - n) >> 3
						pos += int(k)
						n += k * 8
					} else {
						ok = false // stream tail: scalar finishes the block
						break
					}
				}
				// Raw prefix: already-significant coefficients emit plane
				// bits verbatim, then the group/run section.
				x := cur & (1<<s - 1)
				cur >>= s
				n -= s
				for s < 4 {
					g := cur & 1
					cur >>= 1
					n--
					if g == 0 {
						break
					}
					// Significance run: zeros up to the terminating one,
					// counted with one TrailingZeros64. A valid run fits
					// the refill guarantee; an empty buffered word means
					// corrupt or tail.
					if cur == 0 {
						ok = false
						break
					}
					tz := uint(bits.TrailingZeros64(cur))
					cur >>= tz + 1
					n -= tz + 1
					x |= 1 << (s + tz)
					s += tz + 1
				}
				if !ok || s > 4 {
					ok = false // corrupt prefix: scalar owns the semantics
					break
				}
				acc = acc<<1 | spread4[x&15]
				accPlanes++
				if accPlanes == 16 {
					u0 = u0<<16 | acc&0xffff
					u1 = u1<<16 | acc>>16&0xffff
					u2 = u2<<16 | acc>>32&0xffff
					u3 = u3<<16 | acc>>48&0xffff
					acc = 0
					accPlanes = 0
				}
				p--
				if s == 4 && p >= minPlane {
					// Every coefficient is significant: each remaining
					// plane is exactly 4 raw bits (the group loop is dead).
					// Drain them in unchecked nibble batches — as many as
					// the buffered word and the accumulator allow per trip.
					rem := p - minPlane + 1
					for rem > 0 {
						if n < 56 && pos+8 <= len(buf) {
							cur |= binary.LittleEndian.Uint64(buf[pos:]) << n
							k := (63 - n) >> 3
							pos += int(k)
							n += k * 8
						}
						b := int(n >> 2)
						if b > rem {
							b = rem
						}
						if c := int(16 - accPlanes); b > c {
							b = c
						}
						if b == 0 {
							ok = false // tail: scalar finishes the block
							break
						}
						rem -= b
						n -= uint(b) * 4
						for k := 0; k < b; k++ {
							acc = acc<<1 | spread4[cur&15]
							cur >>= 4
						}
						accPlanes += uint(b)
						if accPlanes == 16 {
							u0 = u0<<16 | acc&0xffff
							u1 = u1<<16 | acc>>16&0xffff
							u2 = u2<<16 | acc>>32&0xffff
							u3 = u3<<16 | acc>>48&0xffff
							acc = 0
							accPlanes = 0
						}
					}
					break
				}
			}
			if ok {
				m := uint64(1)<<accPlanes - 1
				u0 = u0<<accPlanes | acc&m
				u1 = u1<<accPlanes | acc>>16&m
				u2 = u2<<accPlanes | acc>>32&m
				u3 = u3<<accPlanes | acc>>48&m
				sh := uint(minPlane)
				c0 := fromNegabinary(u0 << sh)
				c1 := fromNegabinary(u1 << sh)
				c2 := fromNegabinary(u2 << sh)
				c3 := fromNegabinary(u3 << sh)
				inv := invScale(e, 2)
				if i+4 <= nOut {
					o := (*[4]float64)(out[i : i+4])
					o[0] = float64(c0+c1+c2+c3) * inv
					o[1] = float64(c0+c1-c2-c3) * inv
					o[2] = float64(c0-c1-c2+c3) * inv
					o[3] = float64(c0-c1+c2-c3) * inv
				} else {
					blk := [4]float64{
						float64(c0+c1+c2+c3) * inv,
						float64(c0+c1-c2-c3) * inv,
						float64(c0-c1-c2+c3) * inv,
						float64(c0-c1+c2-c3) * inv,
					}
					copy(out[i:], blk[:])
				}
				continue
			}
		}
		// Fallback: rewind to the block boundary and let the scalar decoder
		// consume this one block (stream tail, or a corrupt shape whose
		// semantics the scalar path defines).
		r.pos, r.cur, r.n = sPos, sCur, sN
		f, err := decodeZFPBlock(r, tol)
		if err != nil {
			return err
		}
		pos, cur, n = r.pos, r.cur, r.n
		copy(out[i:], f[:])
	}
	r.pos, r.cur, r.n = pos, cur, n
	return nil
}
