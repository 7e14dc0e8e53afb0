package ps

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"hetkg/internal/vec"
)

// This file is the negotiated wire-codec layer: row codecs (how one
// embedding or gradient row is laid out in bytes) and codec profiles (which
// codec each direction of a link uses). Profiles are negotiated per link —
// at connection time for the TCP transport, at construction time for the
// in-process simulation — so heterogeneous clusters can mix, e.g., fp32 on
// co-located links with delta-int8 across the slow inter-machine network.
//
// Row codecs are stateless and allocation-free: encoding appends to a
// caller-owned buffer, decoding fills a caller-owned row. The stateful part
// of the pull path (delta encoding against the replica's last-seen version)
// lives in linkCodec (codec_link.go), which frames rows with a per-row
// version so both ends of a link agree on the delta base.

// Codec encodes and decodes one embedding row. Implementations are
// stateless and safe for concurrent use; Encode appends to dst (callers
// reuse a grow-only scratch buffer for zero-allocation steady state).
type Codec interface {
	// Name is the codec's wire name ("fp32", "int8", ...).
	Name() string
	// Lossy reports whether decode(encode(row)) may differ from row.
	Lossy() bool
	// MaxRowBytes bounds the encoded size of a width-w row.
	MaxRowBytes(w int) int
	// EncodeRow appends row's encoding to dst and returns the extended
	// slice. It also writes the decoder-visible values back into row, so
	// in-process callers observe exactly what a remote decoder would.
	EncodeRow(dst []byte, row []float32) []byte
	// DecodeRow fills row from the front of src and returns the unread
	// tail.
	DecodeRow(row []float32, src []byte) ([]byte, error)
}

// Canonical codec-profile names, the vocabulary of every -codec flag.
// TestCodecProfilesAreMeasuredAndTested (docs_test.go) enforces that each
// profile named here has a golden wire-format test and an EXPERIMENTS.md
// row.
const (
	// ProfileFP32 ships dense float32 rows both ways (the exact baseline).
	ProfileFP32 = "fp32"
	// ProfileFP16 ships IEEE half-precision rows both ways (2× smaller,
	// ~2^-11 relative rounding error).
	ProfileFP16 = "fp16"
	// ProfileInt8 ships 8-bit linearly quantized rows both ways (4×
	// smaller, per-row scale).
	ProfileInt8 = "int8"
	// ProfileDeltaInt8 pulls int8-quantized deltas against the version the
	// worker already holds (update norms shrink as training converges, so
	// deltas quantize tighter than absolute values) and pushes int8.
	ProfileDeltaInt8 = "delta-int8"
	// ProfileTopK pulls fp32 and pushes only each gradient row's largest
	// coordinates as a sparse row; the worker-side error-feedback buffer
	// (internal/train) re-sends the dropped mass later.
	ProfileTopK = "topk"
	// ProfileAuto picks a profile per link from the link's measured (TCP)
	// or modeled (netsim) RTT and bandwidth; see ChooseProfile.
	ProfileAuto = "auto"
)

// Profile is a negotiated pair of directional row codecs.
type Profile struct {
	// Name is the profile's canonical name.
	Name string
	// Pull and Push name the row codecs for pull responses (shard→worker)
	// and push payloads (worker→shard).
	Pull, Push string
	// DeltaPull frames pull rows with versions and encodes them as deltas
	// against the link's last-transmitted value (see linkCodec).
	DeltaPull bool
	// SparsePush marks the push path as top-k sparsified: the trainer
	// attaches an error-feedback buffer and drops small coordinates before
	// pushing.
	SparsePush bool
}

// profiles is the registry of negotiable profiles, indexed by the wire id
// that the TCP hello carries (one byte).
var profiles = []Profile{
	{Name: ProfileFP32, Pull: "fp32", Push: "fp32"},
	{Name: ProfileFP16, Pull: "fp16", Push: "fp16"},
	{Name: ProfileInt8, Pull: "int8", Push: "int8"},
	{Name: ProfileDeltaInt8, Pull: "int8", Push: "int8", DeltaPull: true},
	{Name: ProfileTopK, Pull: "fp32", Push: "sparse", SparsePush: true},
}

// ResolveProfile maps a -codec flag value to its profile. The empty string
// resolves to fp32 (the exact baseline); "auto" is accepted and resolved
// per link later (ChooseProfile), returned here with only Name set.
func ResolveProfile(name string) (Profile, error) {
	if name == "" {
		name = ProfileFP32
	}
	if name == ProfileAuto {
		return Profile{Name: ProfileAuto}, nil
	}
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("ps: unknown codec %q (have fp32, fp16, int8, delta-int8, topk, auto)", name)
}

// ProfileNames returns every negotiable profile name (excluding auto), in
// wire-id order.
func ProfileNames() []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}

// profileID returns the one-byte wire id the TCP hello carries.
func profileID(name string) (byte, error) {
	for i, p := range profiles {
		if p.Name == name {
			return byte(i), nil
		}
	}
	return 0, fmt.Errorf("ps: profile %q has no wire id", name)
}

// profileByID is the inverse of profileID, used by the serving shard.
func profileByID(id byte) (Profile, error) {
	if int(id) >= len(profiles) {
		return Profile{}, fmt.Errorf("ps: unknown profile id %d", id)
	}
	return profiles[int(id)], nil
}

// rowCodec resolves a directional codec name to its implementation.
func rowCodec(name string) (Codec, error) {
	switch name {
	case "fp32":
		return fp32Codec{}, nil
	case "fp16":
		return fp16Codec{}, nil
	case "int8":
		return int8Codec{}, nil
	case "sparse":
		return sparseCodec{}, nil
	}
	return nil, fmt.Errorf("ps: unknown row codec %q", name)
}

// ChooseProfile picks a profile for a link from its round-trip latency and
// bandwidth: when moving one 4 KiB row batch (the typical per-RPC payload)
// costs more than ~200 µs of wire time the link is slow enough that codec
// CPU pays for itself, and auto picks delta-int8; fast links (co-located
// shards, loopback) stay on exact fp32. The same rule prices measured TCP
// dial RTTs and the netsim cost model's configured link, so auto behaves
// identically in simulation and deployment.
func ChooseProfile(rtt time.Duration, bandwidthBps float64) string {
	const probeBytes = 4096
	cost := rtt
	if bandwidthBps > 0 {
		cost += time.Duration(probeBytes / bandwidthBps * float64(time.Second))
	}
	if cost > 200*time.Microsecond {
		return ProfileDeltaInt8
	}
	return ProfileFP32
}

// fp32Codec is the exact pass-through: 4 bytes per value, little-endian.
type fp32Codec struct{}

func (fp32Codec) Name() string          { return "fp32" }
func (fp32Codec) Lossy() bool           { return false }
func (fp32Codec) MaxRowBytes(w int) int { return 4 * w }

func (fp32Codec) EncodeRow(dst []byte, row []float32) []byte {
	for _, v := range row {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

func (fp32Codec) DecodeRow(row []float32, src []byte) ([]byte, error) {
	if len(src) < 4*len(row) {
		return nil, fmt.Errorf("ps: fp32 row short: %d bytes for width %d", len(src), len(row))
	}
	for i := range row {
		row[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return src[4*len(row):], nil
}

// fp16Codec stores IEEE 754 binary16: 2 bytes per value, round-to-nearest-
// even, overflow clamped to ±65504 (embeddings and gradients must stay
// finite; the shard drops non-finite rows anyway).
type fp16Codec struct{}

func (fp16Codec) Name() string          { return "fp16" }
func (fp16Codec) Lossy() bool           { return true }
func (fp16Codec) MaxRowBytes(w int) int { return 2 * w }

func (fp16Codec) EncodeRow(dst []byte, row []float32) []byte {
	for i, v := range row {
		h := f16FromF32(v)
		row[i] = f16ToF32(h)
		dst = binary.LittleEndian.AppendUint16(dst, h)
	}
	return dst
}

func (fp16Codec) DecodeRow(row []float32, src []byte) ([]byte, error) {
	if len(src) < 2*len(row) {
		return nil, fmt.Errorf("ps: fp16 row short: %d bytes for width %d", len(src), len(row))
	}
	for i := range row {
		row[i] = f16ToF32(binary.LittleEndian.Uint16(src[2*i:]))
	}
	return src[2*len(row):], nil
}

// f16FromF32 converts to half precision with round-to-nearest-even.
// Overflow clamps to ±65504 (max finite half) instead of ±Inf.
func f16FromF32(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b >> 16 & 0x8000)
	abs := b & 0x7fffffff
	if abs >= 0x7f800000 { // Inf or NaN
		if abs > 0x7f800000 {
			return sign | 0x7e00 // NaN
		}
		return sign | 0x7bff // clamp Inf to max finite
	}
	e := int32(abs>>23) - 127
	man := abs & 0x7fffff
	switch {
	case e > 15:
		return sign | 0x7bff // overflow: clamp to 65504
	case e >= -14: // normal half
		r := uint32(e+15)<<10 | man>>13
		// Round to nearest even on the 13 dropped mantissa bits.
		if man&0x1000 != 0 && (man&0xfff != 0 || r&1 == 1) {
			r++
			if r >= 0x7c00 {
				r = 0x7bff
			}
		}
		return sign | uint16(r)
	case e >= -24: // subnormal half
		m := man | 0x800000
		s := uint32(13 + (-14 - e))
		half := uint32(1) << (s - 1)
		r := m >> s
		if m&half != 0 && (m&(half-1) != 0 || r&1 == 1) {
			r++
		}
		return sign | uint16(r)
	}
	return sign // underflow to signed zero
}

// f16ToF32 converts half precision back to float32 (exact).
func f16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		e := int32(-14)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= 0x3ff
		return math.Float32frombits(sign | uint32(e+127)<<23 | man<<13)
	case exp == 31:
		if man != 0 {
			return math.Float32frombits(sign | 0x7fc00000) // NaN
		}
		return math.Float32frombits(sign | 0x7f800000) // Inf
	}
	return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
}

// int8Codec is symmetric 8-bit linear quantization with a per-row scale:
// 4 bytes of scale then 1 byte per value. Values round to the nearest of
// 255 levels spanning [-maxAbs, +maxAbs]; error is bounded by scale/2 =
// maxAbs/254 per value.
type int8Codec struct{}

func (int8Codec) Name() string          { return "int8" }
func (int8Codec) Lossy() bool           { return true }
func (int8Codec) MaxRowBytes(w int) int { return 4 + w }

// EncodeRow takes |v| and the ±0.5 rounding term from v's sign bit (DESIGN
// §6): -0 gets -0.5, which truncates to 0 too. v/scale stays a division.
func (int8Codec) EncodeRow(dst []byte, row []float32) []byte {
	var maxAbs float32
	for _, v := range row {
		if a := vec.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	var scale float32
	if maxAbs > 0 && !math.IsInf(float64(maxAbs), 0) && !math.IsNaN(float64(maxAbs)) {
		scale = maxAbs / 127
	}
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(scale))
	if scale == 0 {
		clear(row)
		for range row {
			dst = append(dst, 0)
		}
		return dst
	}
	for i, v := range row {
		half := math.Float32frombits(math.Float32bits(v)&(1<<31) | math.Float32bits(0.5))
		q := int8(v/scale + half) // round half away from zero
		row[i] = float32(q) * scale
		dst = append(dst, byte(q))
	}
	return dst
}

func (int8Codec) DecodeRow(row []float32, src []byte) ([]byte, error) {
	if len(src) < 4+len(row) {
		return nil, fmt.Errorf("ps: int8 row short: %d bytes for width %d", len(src), len(row))
	}
	scale := math.Float32frombits(binary.LittleEndian.Uint32(src))
	src = src[4:]
	for i := range row {
		row[i] = float32(int8(src[i])) * scale
	}
	return src[len(row):], nil
}

// sparseCodec ships only a row's nonzero coordinates: a 2-byte count then
// (2-byte index, 4-byte value) entries. It is exact on the values it keeps;
// paired with the trainer's top-k sparsifier (which zeroes small
// coordinates into the error-feedback buffer first) it realizes top-k
// gradient exchange. Row widths are capped at 65535 by the index width.
type sparseCodec struct{}

func (sparseCodec) Name() string          { return "sparse" }
func (sparseCodec) Lossy() bool           { return false }
func (sparseCodec) MaxRowBytes(w int) int { return 2 + 6*w }

func (sparseCodec) EncodeRow(dst []byte, row []float32) []byte {
	n := 0
	for _, v := range row {
		if v != 0 {
			n++
		}
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(n))
	for i, v := range row {
		if v == 0 {
			continue
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(i))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

func (sparseCodec) DecodeRow(row []float32, src []byte) ([]byte, error) {
	if len(src) < 2 {
		return nil, fmt.Errorf("ps: sparse row short: no count")
	}
	n := int(binary.LittleEndian.Uint16(src))
	src = src[2:]
	if len(src) < 6*n {
		return nil, fmt.Errorf("ps: sparse row short: %d bytes for %d entries", len(src), n)
	}
	for i := range row {
		row[i] = 0
	}
	for j := 0; j < n; j++ {
		idx := int(binary.LittleEndian.Uint16(src[6*j:]))
		if idx >= len(row) {
			return nil, fmt.Errorf("ps: sparse index %d out of width %d", idx, len(row))
		}
		row[idx] = math.Float32frombits(binary.LittleEndian.Uint32(src[6*j+2:]))
	}
	return src[6*n:], nil
}
