// Package frame is the one on-disk container for the repo's durable files —
// embedding checkpoints, progress snapshots (internal/ckpt) and artifact
// cache entries (internal/artifact):
//
//	magic | body length, 8 bytes big-endian | body | CRC-32 (IEEE) of body, 4 bytes big-endian
//
// The magic names the file kind and versions its body; the length and
// checksum let a reader tell a torn or damaged file from a good one before
// it decodes a byte of the body. Files are installed by temp file + rename
// in the target directory, so a crash never leaves a torn file under the
// final name and concurrent writers race benignly (last rename wins).
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// ErrCorrupt reports a file that exists but cannot be trusted: wrong magic,
// truncated, or failing its checksum. Match with errors.Is.
var ErrCorrupt = errors.New("corrupt file")

// Encode frames body under magic.
func Encode(magic string, body []byte) []byte {
	out := make([]byte, 0, len(magic)+8+len(body)+4)
	out = append(out, magic...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(body)))
	out = append(out, body...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// Decode validates raw's framing and returns the body (aliasing raw).
// Anything that is not exactly one intact frame under magic wraps ErrCorrupt.
func Decode(magic string, raw []byte) ([]byte, error) {
	if len(raw) < len(magic)+8+4 {
		return nil, fmt.Errorf("%w: %d bytes is too short to frame anything", ErrCorrupt, len(raw))
	}
	if string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: magic %q, want %q", ErrCorrupt, raw[:len(magic)], magic)
	}
	raw = raw[len(magic):]
	n := binary.BigEndian.Uint64(raw[:8])
	raw = raw[8:]
	if uint64(len(raw)-4) != n {
		return nil, fmt.Errorf("%w: body length %d does not match %d framed bytes", ErrCorrupt, n, len(raw)-4)
	}
	body := raw[:n]
	if binary.BigEndian.Uint32(raw[n:]) != crc32.ChecksumIEEE(body) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return body, nil
}

// WriteFile atomically installs body, framed under magic, at path.
func WriteFile(path, magic string, body []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(Encode(magic, body)); err != nil {
		tmp.Close()
		return fmt.Errorf("writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("installing %s: %w", path, err)
	}
	return nil
}

// ReadFile reads path and returns the framed body. A missing or unreadable
// file returns the os error as is (so os.IsNotExist works); a file that is
// there but damaged wraps ErrCorrupt.
func ReadFile(path, magic string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(magic, raw)
}
