package ps

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"time"

	"hetkg/internal/kg"
	"hetkg/internal/netsim"
)

// goldenRow is the canonical test vector shared by every codec's golden
// wire-format test: positive, negative, zero, and sub-unit values.
func goldenRow() []float32 { return []float32{1.5, -2.25, 0, 0.75} }

// TestResolveProfile pins the -codec flag vocabulary: every canonical name
// resolves ("fp32", "fp16", "int8", "delta-int8", "topk", "auto"), the empty
// string means fp32, and unknown names fail with the vocabulary listed.
func TestResolveProfile(t *testing.T) {
	for _, name := range ProfileNames() {
		p, err := ResolveProfile(name)
		if err != nil {
			t.Errorf("ResolveProfile(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("ResolveProfile(%q).Name = %q", name, p.Name)
		}
		if _, err := rowCodec(p.Pull); err != nil {
			t.Errorf("profile %q pull codec: %v", name, err)
		}
		if _, err := rowCodec(p.Push); err != nil {
			t.Errorf("profile %q push codec: %v", name, err)
		}
		id, err := profileID(name)
		if err != nil {
			t.Errorf("profileID(%q): %v", name, err)
		}
		back, err := profileByID(id)
		if err != nil || back.Name != name {
			t.Errorf("profileByID(profileID(%q)) = %q, %v", name, back.Name, err)
		}
	}
	if p, err := ResolveProfile(""); err != nil || p.Name != ProfileFP32 {
		t.Errorf("empty codec resolved to %q, %v; want fp32", p.Name, err)
	}
	if p, err := ResolveProfile("auto"); err != nil || p.Name != ProfileAuto {
		t.Errorf("auto resolved to %q, %v", p.Name, err)
	}
	if _, err := ResolveProfile("zstd"); err == nil {
		t.Error("unknown codec accepted")
	}
	if _, err := profileID(ProfileAuto); err == nil {
		t.Error("auto has a wire id; it must resolve before the handshake")
	}
}

// TestGoldenWireFormats pins each row codec's exact byte layout for the
// canonical row {1.5, -2.25, 0, 0.75}. A byte change here is a wire protocol
// break: old workers cannot talk to new shards.
func TestGoldenWireFormats(t *testing.T) {
	cases := []struct {
		codec string
		hex   string
		// decoded is what both the decoder and the encoder's in-place
		// rewrite must produce (lossy codecs differ from the input).
		decoded []float32
	}{
		{"fp32", "0000c03f000010c0000000000000403f", []float32{1.5, -2.25, 0, 0.75}},
		{"fp16", "003e80c00000003a", []float32{1.5, -2.25, 0, 0.75}},
		// scale = 2.25/127; quants 85, -127, 0, 42 (round half away from 0).
		{"int8", "4522913c5581002a",
			[]float32{85 * 2.25 / 127, -2.25, 0, 42 * 2.25 / 127}},
		{"sparse", "030000000000c03f0100000010c003000000403f", []float32{1.5, -2.25, 0, 0.75}},
	}
	for _, tc := range cases {
		t.Run(tc.codec, func(t *testing.T) {
			c, err := rowCodec(tc.codec)
			if err != nil {
				t.Fatal(err)
			}
			row := goldenRow()
			enc := c.EncodeRow(nil, row)
			if got := hex.EncodeToString(enc); got != tc.hex {
				t.Fatalf("encoded bytes %s, want %s", got, tc.hex)
			}
			if len(enc) > c.MaxRowBytes(len(row)) {
				t.Errorf("encoding %d bytes exceeds MaxRowBytes %d", len(enc), c.MaxRowBytes(len(row)))
			}
			dec := make([]float32, len(row))
			rest, err := c.DecodeRow(dec, enc)
			if err != nil {
				t.Fatalf("DecodeRow: %v", err)
			}
			if len(rest) != 0 {
				t.Errorf("%d undecoded bytes", len(rest))
			}
			for i := range dec {
				if !close32(dec[i], tc.decoded[i]) {
					t.Errorf("decoded[%d] = %v, want %v", i, dec[i], tc.decoded[i])
				}
				// The encoder's in-place rewrite must equal the decode —
				// that is the lockstep guarantee the delta bases rely on.
				if dec[i] != row[i] {
					t.Errorf("encoder rewrote row[%d] to %v but decoder sees %v", i, row[i], dec[i])
				}
			}
			// Truncated input must error, not read out of bounds.
			if _, err := c.DecodeRow(dec, enc[:len(enc)-1]); err == nil {
				t.Error("truncated row decoded without error")
			}
		})
	}
}

func close32(a, b float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6
}

// TestInt8ErrorBound pins the quantizer's contract: per-value error at most
// scale/2 = maxAbs/254 (plus float slack) on random rows.
func TestInt8ErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, _ := rowCodec("int8")
	for trial := 0; trial < 100; trial++ {
		row := make([]float32, 64)
		var maxAbs float64
		for i := range row {
			row[i] = float32((rng.Float64()*2 - 1) * math.Pow(10, float64(trial%7-3)))
			if a := math.Abs(float64(row[i])); a > maxAbs {
				maxAbs = a
			}
		}
		orig := append([]float32(nil), row...)
		enc := c.EncodeRow(nil, row)
		dec := make([]float32, len(row))
		if _, err := c.DecodeRow(dec, enc); err != nil {
			t.Fatal(err)
		}
		bound := maxAbs/254*(1+1e-5) + 1e-12
		for i := range dec {
			if err := math.Abs(float64(dec[i]) - float64(orig[i])); err > bound {
				t.Fatalf("trial %d: |dec-orig|[%d] = %g exceeds maxAbs/254 = %g", trial, i, err, bound)
			}
		}
	}
}

// encodeInt8Branchy is int8Codec.EncodeRow as it was while it branched on
// each element's sign, kept verbatim: the reference the branch-free encoder
// must reproduce byte for byte and bit for bit.
func encodeInt8Branchy(dst []byte, row []float32) []byte {
	sign := func(v float32) float32 {
		if v < 0 {
			return -1
		}
		return 1
	}
	var maxAbs float32
	for _, v := range row {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	var scale float32
	if maxAbs > 0 && !math.IsInf(float64(maxAbs), 0) && !math.IsNaN(float64(maxAbs)) {
		scale = maxAbs / 127
	}
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(scale))
	for i, v := range row {
		var q int8
		if scale > 0 {
			q = int8(v/scale + sign(v)*0.5) // round half away from zero
		}
		row[i] = float32(q) * scale
		dst = append(dst, byte(q))
	}
	return dst
}

// TestInt8EncodeMatchesBranchyReference holds the int8 encoder to the
// branchy loop it replaced, on the bytes and on every bit of the rewritten
// row: widths on and off any unrolling, normal rows mixed with ±0, ±Inf,
// subnormals and NaNs of both signs with payloads, rows of exact .5 ties
// (scale 1 and 0.5, so v/scale + ±0.5 lands on a whole number), a row whose
// scale underflows to 0, and an all-zero row.
func TestInt8EncodeMatchesBranchyReference(t *testing.T) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x00000001), math.Float32frombits(0x807fffff),
		math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
		math.Float32frombits(0x7fc12345), math.Float32frombits(0xffd00bad),
		math.Float32frombits(0x7f800001), math.Float32frombits(0xff812345),
	}
	rng := rand.New(rand.NewSource(28))
	check := func(name string, row []float32) {
		t.Helper()
		want, got := append([]float32(nil), row...), append([]float32(nil), row...)
		wantB := encodeInt8Branchy([]byte{0xee}, want)
		gotB := int8Codec{}.EncodeRow([]byte{0xee}, got)
		if hex.EncodeToString(gotB) != hex.EncodeToString(wantB) {
			t.Fatalf("%s %v: bytes %x, branchy %x", name, row, gotB, wantB)
		}
		for i := range got {
			if a, b := math.Float32bits(got[i]), math.Float32bits(want[i]); a != b {
				t.Fatalf("%s %v: row[%d] rewritten to %#08x, branchy %#08x", name, row, i, a, b)
			}
		}
	}
	for _, d := range []int{1, 3, 4, 7, 16, 64, 128, 130} {
		for trial := 0; trial < 300; trial++ {
			dirty := []float64{0, 0.05, 0.5}[trial%3]
			row := make([]float32, d)
			for i := range row {
				row[i] = float32(rng.NormFloat64())
				if rng.Float64() < dirty {
					row[i] = specials[rng.Intn(len(specials))]
				}
			}
			check("random", row)
			for i := range row { // ties: maxAbs 127 (scale 1) or 63.5 (0.5)
				row[i] = float32(rng.Intn(255)-127) + 0.5*float32(rng.Intn(2))
				if rng.Float64() < dirty {
					row[i] = specials[rng.Intn(len(specials))]
				}
			}
			row[rng.Intn(d)] = []float32{127, -127, 63.5, -63.5}[rng.Intn(4)]
			check("ties", row)
		}
		check("zero", make([]float32, d))
		tiny := make([]float32, d)
		tiny[d-1] = math.Float32frombits(0x80000001) // scale = maxAbs/127 underflows to 0
		check("underflow", tiny)
	}
}

// TestFP16ErrorBound pins half precision's contract: relative error at most
// 2^-11 for values in the normal half range.
func TestFP16ErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, _ := rowCodec("fp16")
	row := make([]float32, 256)
	for i := range row {
		row[i] = float32((rng.Float64()*2 - 1) * math.Pow(10, float64(i%8-4)))
	}
	orig := append([]float32(nil), row...)
	enc := c.EncodeRow(nil, row)
	dec := make([]float32, len(row))
	if _, err := c.DecodeRow(dec, enc); err != nil {
		t.Fatal(err)
	}
	for i := range dec {
		if orig[i] == 0 {
			continue
		}
		rel := math.Abs(float64(dec[i])-float64(orig[i])) / math.Abs(float64(orig[i]))
		if math.Abs(float64(orig[i])) >= 6.1e-5 && rel > 1.0/(1<<11) {
			t.Errorf("relative error %g at %d (%v -> %v) exceeds 2^-11", rel, i, orig[i], dec[i])
		}
	}
}

// TestFP16SpecialValues covers the conversion's edges: overflow clamps to
// the max finite half (±65504), NaN stays NaN, subnormals round-trip, and
// signed zero survives.
func TestFP16SpecialValues(t *testing.T) {
	if got := f16ToF32(f16FromF32(1e6)); got != 65504 {
		t.Errorf("overflow clamped to %v, want 65504", got)
	}
	if got := f16ToF32(f16FromF32(-1e6)); got != -65504 {
		t.Errorf("negative overflow clamped to %v, want -65504", got)
	}
	if got := f16ToF32(f16FromF32(float32(math.Inf(1)))); got != 65504 {
		t.Errorf("+Inf clamped to %v, want 65504", got)
	}
	if got := f16ToF32(f16FromF32(float32(math.NaN()))); !math.IsNaN(float64(got)) {
		t.Errorf("NaN became %v", got)
	}
	// Smallest positive subnormal half = 2^-24.
	sub := float32(math.Ldexp(1, -24))
	if got := f16ToF32(f16FromF32(sub)); got != sub {
		t.Errorf("subnormal %v round-tripped to %v", sub, got)
	}
	// Below half the smallest subnormal: underflow to zero.
	if got := f16ToF32(f16FromF32(float32(math.Ldexp(1, -26)))); got != 0 {
		t.Errorf("tiny value became %v, want 0", got)
	}
	if bits := f16FromF32(float32(math.Copysign(0, -1))); bits != 0x8000 {
		t.Errorf("negative zero encoded as %#x", bits)
	}
	// Exhaustive: every finite half must round-trip bit-exactly through
	// float32 (f16ToF32 is an exact embedding).
	for h := uint32(0); h < 1<<16; h++ {
		f := f16ToF32(uint16(h))
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
			continue
		}
		if back := f16FromF32(f); back != uint16(h) {
			t.Fatalf("half %#04x -> %v -> %#04x", h, f, back)
		}
	}
}

// TestSparseCodecEdgeCases: all-zero rows cost 2 bytes, decoding clears
// stale values, and corrupt indices are rejected.
func TestSparseCodecEdgeCases(t *testing.T) {
	c, _ := rowCodec("sparse")
	zero := make([]float32, 16)
	enc := c.EncodeRow(nil, zero)
	if len(enc) != 2 {
		t.Errorf("all-zero row encoded to %d bytes, want 2", len(enc))
	}
	dec := []float32{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}
	if _, err := c.DecodeRow(dec, enc); err != nil {
		t.Fatal(err)
	}
	for i, v := range dec {
		if v != 0 {
			t.Errorf("stale value %v survived at %d", v, i)
		}
	}
	// Out-of-range index must error.
	bad := []byte{1, 0, 200, 0, 0, 0, 0, 0} // count 1, idx 200 for width 4
	if _, err := c.DecodeRow(make([]float32, 4), bad); err == nil {
		t.Error("out-of-range sparse index accepted")
	}
}

// TestChooseProfile pins the auto rule: slow links (where 4 KiB of payload
// costs over ~200 µs) negotiate delta-int8, fast links stay exact.
func TestChooseProfile(t *testing.T) {
	if got := ChooseProfile(time.Millisecond, 1e9); got != ProfileDeltaInt8 {
		t.Errorf("1 ms RTT chose %q, want delta-int8", got)
	}
	// The netsim auto path prices the paper's default link (100 µs one-way,
	// 1 Gbps) as 2×latency + transfer: slow enough for delta-int8.
	cm := netsim.Default1Gbps()
	if got := ChooseProfile(2*cm.RemoteLatency, cm.RemoteBandwidthBps); got != ProfileDeltaInt8 {
		t.Errorf("modeled 1 Gbps link chose %q, want delta-int8", got)
	}
	if got := ChooseProfile(10*time.Microsecond, 0); got != ProfileFP32 {
		t.Errorf("loopback RTT chose %q, want fp32", got)
	}
	if got := ChooseProfile(10*time.Microsecond, 1e10); got != ProfileFP32 {
		t.Errorf("fast link chose %q, want fp32", got)
	}
}

// deltaPair builds the two endpoints of one delta-int8 link sharing a fixed
// row width.
func deltaPair(t *testing.T, width int) (server, worker *linkCodec) {
	t.Helper()
	prof, err := ResolveProfile(ProfileDeltaInt8)
	if err != nil {
		t.Fatal(err)
	}
	widthOf := func(Key) int { return width }
	server, err = newLinkCodec(prof, widthOf)
	if err != nil {
		t.Fatal(err)
	}
	worker, err = newLinkCodec(prof, widthOf)
	if err != nil {
		t.Fatal(err)
	}
	return server, worker
}

// TestDeltaLinkLockstep drives both endpoints of a delta link through
// several pull generations and checks the protocol invariants: the worker
// reconstructs exactly the values the server's encoder rewrote (bases stay
// bit-identical despite the lossy inner codec), versions advance, and after
// the first generation every row travels as a delta.
func TestDeltaLinkLockstep(t *testing.T) {
	const width, rows = 16, 8
	server, worker := deltaPair(t, width)
	keys := make([]Key, rows)
	for i := range keys {
		keys[i] = EntityKey(kg.EntityID(i))
	}
	rng := rand.New(rand.NewSource(7))
	state := make([]float32, rows*width)
	for i := range state {
		state[i] = float32(rng.NormFloat64())
	}
	for gen := 0; gen < 5; gen++ {
		// The server's state drifts a little each generation, like training.
		for i := range state {
			state[i] += float32(rng.NormFloat64() * 0.01)
		}
		bv := worker.appendBaseVers(nil, keys)
		vals := append([]float32(nil), state...)
		payload, err := server.encodePull(nil, keys, bv, vals)
		if err != nil {
			t.Fatalf("gen %d: encodePull: %v", gen, err)
		}
		got := make([]float32, rows*width)
		if err := worker.decodePull(keys, payload, got); err != nil {
			t.Fatalf("gen %d: decodePull: %v", gen, err)
		}
		for i := range got {
			if got[i] != vals[i] {
				t.Fatalf("gen %d: worker decoded %v at %d, server rewrote %v", gen, got[i], i, vals[i])
			}
		}
		// Adopt the decoder-visible state so deltas stay small and the
		// test mirrors the shard (whose truth the codec rewrite tracks).
		copy(state, vals)
		for _, k := range keys {
			sb, wb := server.bases[k], worker.bases[k]
			if sb == nil || wb == nil {
				t.Fatalf("gen %d: missing base for %v", gen, k)
			}
			if sb.ver != wb.ver {
				t.Fatalf("gen %d: version skew for %v: server %d worker %d", gen, k, sb.ver, wb.ver)
			}
			if want := uint32(gen + 1); sb.ver != want {
				t.Errorf("gen %d: version %d, want %d", gen, sb.ver, want)
			}
			for j := range sb.row {
				if sb.row[j] != wb.row[j] {
					t.Fatalf("gen %d: base drift for %v at %d", gen, k, j)
				}
			}
		}
		// Wire layout: after generation 0 every row must be a delta frame.
		if gen > 0 {
			if payload[0] != 1 {
				t.Errorf("gen %d: first row not delta-framed", gen)
			}
			want := rows * (5 + 4 + width) // flag + ver + int8 row each
			if len(payload) != want {
				t.Errorf("gen %d: payload %d bytes, want %d", gen, len(payload), want)
			}
		}
	}
	// A worker that lost its base must reject a delta frame.
	fresh, err := newLinkCodec(server.prof, func(Key) int { return width })
	if err != nil {
		t.Fatal(err)
	}
	bv := worker.appendBaseVers(nil, keys)
	vals := append([]float32(nil), state...)
	payload, err := server.encodePull(nil, keys, bv, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.decodePull(keys, payload, make([]float32, rows*width)); err == nil {
		t.Error("delta frame for an unbased row decoded without error")
	}
}

// TestDeltaUnadvertisedRowsSentFull: a worker advertising version 0 (no
// base) must get full rows even when the server holds a base.
func TestDeltaUnadvertisedRowsSentFull(t *testing.T) {
	const width = 8
	server, worker := deltaPair(t, width)
	keys := []Key{EntityKey(1)}
	vals := []float32{1, 2, 3, 4, 5, 6, 7, 8}

	// First exchange establishes bases on both ends.
	bv := worker.appendBaseVers(nil, keys)
	payload, err := server.encodePull(nil, keys, bv, append([]float32(nil), vals...))
	if err != nil {
		t.Fatal(err)
	}
	if err := worker.decodePull(keys, payload, make([]float32, width)); err != nil {
		t.Fatal(err)
	}

	// A second worker on a fresh link advertises nothing: full row again.
	worker2, err := newLinkCodec(server.prof, func(Key) int { return width })
	if err != nil {
		t.Fatal(err)
	}
	bv = worker2.appendBaseVers(nil, keys)
	payload, err = server.encodePull(nil, keys, bv, append([]float32(nil), vals...))
	if err != nil {
		t.Fatal(err)
	}
	if payload[0] != 0 {
		t.Error("unadvertised row was delta-framed")
	}
	if err := worker2.decodePull(keys, payload, make([]float32, width)); err != nil {
		t.Fatalf("fresh worker decode: %v", err)
	}
}

// TestCodecTransportProfiles checks every profile round-trips pulls and
// pushes through the in-process codec transport with the expected loss
// behaviour: exact profiles preserve values bit-for-bit, lossy ones stay
// within their bounds, and "topk" is exact on the (dense) pull path.
func TestCodecTransportProfiles(t *testing.T) {
	for _, codec := range []string{"fp32", "fp16", "int8", "delta-int8", "topk", "auto"} {
		t.Run(codec, func(t *testing.T) {
			c := testCluster(t, 2)
			exact := NewInProc(c)
			ref, err := exact.Pull(0, &PullRequest{Keys: []Key{EntityKey(0), RelationKey(0)}})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := NewCodecTransport(NewInProc(c), c, codec, netsim.Default1Gbps())
			if err != nil {
				t.Fatal(err)
			}
			resp, err := tr.Pull(0, &PullRequest{Keys: []Key{EntityKey(0), RelationKey(0)}})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Vals) != len(ref.Vals) {
				t.Fatalf("pulled %d values, want %d", len(resp.Vals), len(ref.Vals))
			}
			prof := tr.codec
			if codec != "auto" && prof != codec {
				t.Errorf("negotiated %q, want %q", prof, codec)
			}
			lossless := prof == "fp32" || prof == "topk"
			for i := range resp.Vals {
				if lossless && resp.Vals[i] != ref.Vals[i] {
					t.Fatalf("%q pull not exact at %d: %v vs %v", prof, i, resp.Vals[i], ref.Vals[i])
				}
				if !close32at(resp.Vals[i], ref.Vals[i], 0.05) {
					t.Fatalf("%q pull too lossy at %d: %v vs %v", prof, i, resp.Vals[i], ref.Vals[i])
				}
			}
			grad := make([]float32, 8)
			grad[0], grad[7] = 0.5, -0.25
			if err := tr.Push(0, &PushRequest{Keys: []Key{EntityKey(0)}, Vals: grad}); err != nil {
				t.Fatalf("push: %v", err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func close32at(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
