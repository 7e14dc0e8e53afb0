package ps

import (
	"encoding/binary"
	"fmt"

	"hetkg/internal/metrics"
)

// maxLinkBases caps the per-link delta base table. Links that touch more
// rows than this (a full-table gather on a huge graph) keep working — rows
// beyond the cap are simply sent full with version 0 ("unbased") and cost
// no base memory on either end.
const maxLinkBases = 1 << 20

// codecObs holds the registry-backed codec series shared by every link of
// one transport (see the transports' Instrument methods). Counting happens
// on the worker side of a link only, so a process running both a trainer
// and an in-process shard does not double-count.
type codecObs struct {
	bytesRaw  *metrics.Counter
	bytesWire *metrics.Counter
	rowsDelta *metrics.Counter
}

func newCodecObs(reg *metrics.Registry) *codecObs {
	return &codecObs{
		bytesRaw:  reg.Counter(metrics.MPSCodecBytesRaw),
		bytesWire: reg.Counter(metrics.MPSCodecBytesWire),
		rowsDelta: reg.Counter(metrics.MPSCodecRowsDelta),
	}
}

// linkCodec is one endpoint's codec state for one worker↔shard link. The
// stateless row codecs come from the negotiated profile; for delta pulls
// the link additionally remembers, per row, the last value it transmitted
// (the "base") and a version counter, kept in lockstep with the peer over
// the link's ordered, reliable byte stream.
//
// Wire layout of a delta-framed pull row:
//
//	[flag 1B][version 4B LE][codec row bytes]
//
// flag 1 = the codec bytes encode (new − base) against the version the
// worker advertised; flag 0 = they encode the full value. Version 0 means
// "unbased": the receiver must not install a base (used past maxLinkBases).
// Both ends then set base ← decoded value, so the bases stay bit-identical
// even though the codec is lossy. Non-delta profiles ship bare codec rows
// with no framing.
//
// A linkCodec is not internally synchronized; its owner (a link's mutex on
// the worker side, a session's request order on the shard) serializes use.
type linkCodec struct {
	prof    Profile
	pull    Codec
	push    Codec
	widthOf func(Key) int
	bases   map[Key]*linkBase
	diff    []float32 // delta scratch row
	obs     *codecObs
}

type linkBase struct {
	ver uint32
	row []float32
}

// newLinkCodec builds one endpoint's state for a resolved (non-auto)
// profile.
func newLinkCodec(prof Profile, widthOf func(Key) int) (*linkCodec, error) {
	pull, err := rowCodec(prof.Pull)
	if err != nil {
		return nil, err
	}
	push, err := rowCodec(prof.Push)
	if err != nil {
		return nil, err
	}
	lc := &linkCodec{prof: prof, pull: pull, push: push, widthOf: widthOf}
	if prof.DeltaPull {
		lc.bases = make(map[Key]*linkBase)
	}
	return lc, nil
}

// totalWidth sums the row widths of keys.
func (lc *linkCodec) totalWidth(keys []Key) int {
	total := 0
	for _, k := range keys {
		total += lc.widthOf(k)
	}
	return total
}

// maxPullBytes bounds the pull reply payload for keys: each row at its
// pull codec's widest, behind a delta row's flag and version.
func (lc *linkCodec) maxPullBytes(keys []Key) int {
	frame := 0
	if lc.prof.DeltaPull {
		frame = 5
	}
	n := 0
	for _, k := range keys {
		n += frame + lc.pull.MaxRowBytes(lc.widthOf(k))
	}
	return n
}

// scratch returns the delta scratch row, grown to width w.
func (lc *linkCodec) scratch(w int) []float32 {
	if cap(lc.diff) < w {
		lc.diff = make([]float32, w)
	}
	return lc.diff[:w]
}

// appendBaseVers appends the worker's advertised per-row versions (4 bytes
// LE per key, 0 = no base held) for a pull request. Non-delta profiles
// advertise nothing and return dst unchanged.
func (lc *linkCodec) appendBaseVers(dst []byte, keys []Key) []byte {
	if !lc.prof.DeltaPull {
		return dst
	}
	for _, k := range keys {
		var ver uint32
		if b := lc.bases[k]; b != nil {
			ver = b.ver
		}
		dst = binary.LittleEndian.AppendUint32(dst, ver)
	}
	return dst
}

// bumpVer advances a base version, skipping 0 (the "unbased" sentinel).
func bumpVer(v uint32) uint32 {
	v++
	if v == 0 {
		v = 1
	}
	return v
}

// encodePull encodes a pull response's rows (vals, concatenated in key
// order) against the versions the worker advertised in baseVers, appending
// the payload to dst. vals is REWRITTEN in place with the decoder-visible
// values — exactly what the worker reconstructs — and those become the
// link base, so it stays in lockstep with the peer.
func (lc *linkCodec) encodePull(dst []byte, keys []Key, baseVers []byte, vals []float32) ([]byte, error) {
	if !lc.prof.DeltaPull {
		return lc.codeRows(dst, keys, vals, lc.pull)
	}
	if len(baseVers) != 0 && len(baseVers) != 4*len(keys) {
		return nil, fmt.Errorf("ps: pull advertises %d version bytes for %d keys", len(baseVers), len(keys))
	}
	rawStart := len(dst)
	off := 0
	deltas := int64(0)
	for i, k := range keys {
		w := lc.widthOf(k)
		if off+w > len(vals) {
			return nil, fmt.Errorf("ps: pull payload short at %v", k)
		}
		row := vals[off : off+w]
		var adv uint32
		if len(baseVers) != 0 {
			adv = binary.LittleEndian.Uint32(baseVers[4*i:])
		}
		b := lc.bases[k]
		if b != nil && adv != 0 && b.ver == adv {
			// Delta against the shared base: encode new − base, then
			// reconstruct the decoder's view base + dec(delta).
			diff := lc.scratch(w)
			for j := range row {
				diff[j] = row[j] - b.row[j]
			}
			dst = append(dst, 1)
			b.ver = bumpVer(b.ver)
			dst = binary.LittleEndian.AppendUint32(dst, b.ver)
			dst = lc.pull.EncodeRow(dst, diff)
			for j := range row {
				row[j] = b.row[j] + diff[j]
			}
			copy(b.row, row)
			deltas++
		} else {
			// Full value: (re)establish the base when there is room.
			if b == nil && len(lc.bases) < maxLinkBases {
				b = &linkBase{row: make([]float32, w)}
				lc.bases[k] = b
			}
			dst = append(dst, 0)
			var ver uint32
			if b != nil {
				ver = bumpVer(b.ver)
			}
			dst = binary.LittleEndian.AppendUint32(dst, ver)
			dst = lc.pull.EncodeRow(dst, row)
			if b != nil {
				b.ver = ver
				copy(b.row, row)
			}
		}
		off += w
	}
	if off != len(vals) {
		return nil, fmt.Errorf("ps: pull payload has %d leftover values", len(vals)-off)
	}
	if o := lc.obs; o != nil {
		o.bytesRaw.Add(4 * int64(len(vals)))
		o.bytesWire.Add(int64(len(dst) - rawStart))
		o.rowsDelta.Add(deltas)
	}
	return dst, nil
}

// decodePull is the worker-side inverse of encodePull: it fills vals
// (sized totalWidth(keys)) from payload and installs the decoded values as
// the new link bases.
func (lc *linkCodec) decodePull(keys []Key, payload []byte, vals []float32) error {
	if !lc.prof.DeltaPull {
		return lc.decodeRows(keys, payload, vals, lc.pull)
	}
	wire := int64(len(payload))
	off := 0
	deltas := int64(0)
	for _, k := range keys {
		w := lc.widthOf(k)
		if off+w > len(vals) {
			return fmt.Errorf("ps: pull decode buffer short at %v", k)
		}
		row := vals[off : off+w]
		if len(payload) < 5 {
			return fmt.Errorf("ps: delta pull row short at %v", k)
		}
		flag := payload[0]
		ver := binary.LittleEndian.Uint32(payload[1:])
		payload = payload[5:]
		var err error
		switch flag {
		case 1:
			b := lc.bases[k]
			if b == nil {
				return fmt.Errorf("ps: delta for unbased row %v", k)
			}
			diff := lc.scratch(w)
			payload, err = lc.pull.DecodeRow(diff, payload)
			if err != nil {
				return err
			}
			for j := range row {
				row[j] = b.row[j] + diff[j]
			}
			b.ver = ver
			copy(b.row, row)
			deltas++
		case 0:
			payload, err = lc.pull.DecodeRow(row, payload)
			if err != nil {
				return err
			}
			b := lc.bases[k]
			if ver == 0 {
				// Server could not base this row; drop ours so the next
				// request does not advertise a version the peer lost.
				if b != nil {
					delete(lc.bases, k)
				}
			} else {
				if b == nil {
					if len(lc.bases) >= maxLinkBases {
						return fmt.Errorf("ps: link base table full for %v", k)
					}
					b = &linkBase{row: make([]float32, w)}
					lc.bases[k] = b
				}
				b.ver = ver
				copy(b.row, row)
			}
		default:
			return fmt.Errorf("ps: bad delta flag %d for %v", flag, k)
		}
		off += w
	}
	if len(payload) != 0 {
		return fmt.Errorf("ps: pull payload has %d leftover bytes", len(payload))
	}
	if off != len(vals) {
		return fmt.Errorf("ps: pull decode buffer has %d leftover values", len(vals)-off)
	}
	if o := lc.obs; o != nil {
		o.bytesRaw.Add(4 * int64(len(vals)))
		o.bytesWire.Add(wire)
		o.rowsDelta.Add(deltas)
	}
	return nil
}

// encodePush encodes a push request's gradient rows, appending to dst.
// vals is rewritten with the decoder-visible values (lossy codecs really
// lose the same bits everywhere).
func (lc *linkCodec) encodePush(dst []byte, keys []Key, vals []float32) ([]byte, error) {
	return lc.codeRows(dst, keys, vals, lc.push)
}

// decodePush is the shard-side inverse of encodePush.
func (lc *linkCodec) decodePush(keys []Key, payload []byte, vals []float32) error {
	return lc.decodeRows(keys, payload, vals, lc.push)
}

// codeRows encodes rows with a stateless codec, accounting raw vs wire
// bytes into the link's codec series (the tx/rx split lives in
// ps.bytes_tx/rx).
func (lc *linkCodec) codeRows(dst []byte, keys []Key, vals []float32, c Codec) ([]byte, error) {
	rawStart := len(dst)
	off := 0
	for _, k := range keys {
		w := lc.widthOf(k)
		if off+w > len(vals) {
			return nil, fmt.Errorf("ps: payload short at %v", k)
		}
		dst = c.EncodeRow(dst, vals[off:off+w])
		off += w
	}
	if off != len(vals) {
		return nil, fmt.Errorf("ps: payload has %d leftover values", len(vals)-off)
	}
	if o := lc.obs; o != nil {
		o.bytesRaw.Add(4 * int64(len(vals)))
		o.bytesWire.Add(int64(len(dst) - rawStart))
	}
	return dst, nil
}

// decodeRows decodes stateless-codec rows into vals (sized
// totalWidth(keys)).
func (lc *linkCodec) decodeRows(keys []Key, payload []byte, vals []float32, c Codec) error {
	wire := int64(len(payload))
	off := 0
	var err error
	for _, k := range keys {
		w := lc.widthOf(k)
		if off+w > len(vals) {
			return fmt.Errorf("ps: decode buffer short at %v", k)
		}
		payload, err = c.DecodeRow(vals[off:off+w], payload)
		if err != nil {
			return err
		}
		off += w
	}
	if len(payload) != 0 {
		return fmt.Errorf("ps: payload has %d leftover bytes", len(payload))
	}
	if off != len(vals) {
		return fmt.Errorf("ps: decode buffer has %d leftover values", len(vals)-off)
	}
	if o := lc.obs; o != nil {
		o.bytesRaw.Add(4 * int64(len(vals)))
		o.bytesWire.Add(wire)
	}
	return nil
}
