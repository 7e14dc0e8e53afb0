// Package artifact is a content-addressed on-disk cache for expensive,
// deterministic intermediates: synthetic datasets, partitioner outputs, and
// anything else that is a pure function of a run configuration. An entry is
// an opaque byte body keyed by a SHA-256 of the inputs that produced it, so
// a warm cache turns regeneration into a read, and a changed input can never
// alias a stale entry (the key changes with it). Each caller lays out and
// parses its own body (a fixed little-endian layout, every count checked
// against the bytes left), and re-validates what it parsed.
//
// The store is shared freely between processes: entries are internal/frame
// files (magic, length, CRC-32, atomic rename — the container internal/ckpt
// uses too), so concurrent writers of the same key race benignly (identical
// content, last rename wins), readers never observe a torn entry, and
// anything unreadable is reported as a typed ErrCorrupt so callers can fall
// back to regeneration instead of trusting damaged bytes.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"hetkg/internal/frame"
)

// artVersion versions the container format; version 1 held gob bodies.
const artVersion = 2

// artMagicPrefix starts every version's magic; artMagic identifies this
// version's artifact files.
const (
	artMagicPrefix = "HETKG-ART-v"
	artMagic       = artMagicPrefix + "2\n"
)

// ErrCorrupt reports an artifact that exists on disk but cannot be trusted:
// wrong magic, truncated, or failing its checksum. Callers match with
// errors.Is and regenerate.
var ErrCorrupt = frame.ErrCorrupt

// Key addresses one artifact: the hex SHA-256 of everything that went into
// producing it. Build one with KeyOf.
type Key string

// KeyOf derives a Key from an ordered list of input strings. Each part is
// length-prefixed before hashing, so ("ab","c") and ("a","bc") cannot
// collide. Include a format-version part (e.g. "dataset/v1") so key spaces
// survive generator changes.
func KeyOf(parts ...string) Key {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write([]byte(p))
	}
	return Key(hex.EncodeToString(h.Sum(nil)))
}

// Hasher accumulates raw bytes into a Key, for fingerprinting bulk content
// (triple streams) without materializing an intermediate string.
type Hasher struct {
	h hash.Hash
}

// NewHasher returns an empty content hasher.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

// Write adds bytes to the fingerprint (never fails).
func (h *Hasher) Write(p []byte) { _, _ = h.h.Write(p) }

// Key finalizes the fingerprint.
func (h *Hasher) Key() Key { return Key(hex.EncodeToString(h.h.Sum(nil))) }

// Store is one artifact cache directory plus its process-local hit/miss
// accounting. The zero value is not usable; call Open.
type Store struct {
	dir string

	hits    atomic.Int64
	misses  atomic.Int64
	corrupt atomic.Int64
	writes  atomic.Int64
}

// Open creates (if needed) and returns the store rooted at dir. It deletes
// the entries an older container version wrote: this build can never read
// them, and they would pile up at every format bump. A newer build's
// entries, and every other file, are left alone.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: creating store: %w", err)
	}
	entries, _ := os.ReadDir(dir) // an unlistable directory is left as it is; Put and Get report its errors
	for _, e := range entries {
		if path := filepath.Join(dir, e.Name()); strings.HasSuffix(path, ".art") && older(path) {
			os.Remove(path)
		}
	}
	return &Store{dir: dir}, nil
}

// older reports whether path starts with the magic of a container version
// before artVersion.
func older(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	head := make([]byte, len(artMagic))
	n, _ := io.ReadFull(f, head) // a file shorter than a magic is judged on the bytes it has
	v, ok := strings.CutPrefix(string(head[:n]), artMagicPrefix)
	v, _, _ = strings.Cut(v, "\n")
	version, err := strconv.Atoi(v)
	return ok && err == nil && version < artVersion
}

// Hits returns how many Gets returned a body since Open (its caller may
// still refuse a body that does not parse, and regenerate).
func (s *Store) Hits() int64 { return s.hits.Load() }

// Misses returns how many Gets found no body (absent or corrupt).
func (s *Store) Misses() int64 { return s.misses.Load() }

// Corrupt returns how many Gets rejected a damaged entry, a subset of Misses.
func (s *Store) Corrupt() int64 { return s.corrupt.Load() }

// Writes returns how many entries Put installed since Open.
func (s *Store) Writes() int64 { return s.writes.Load() }

// path places an entry; kind is a short human-readable label ("dataset",
// "partition") that makes `ls` on the cache legible without affecting
// addressing — the key alone decides identity.
func (s *Store) path(kind string, key Key) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%s.art", kind, key))
}

// Put atomically installs body under (kind, key).
func (s *Store) Put(kind string, key Key, body []byte) error {
	if err := frame.WriteFile(s.path(kind, key), artMagic, body); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// Get returns the body stored under (kind, key). A clean miss returns
// (nil, false, nil). A damaged entry is deleted, counted, and returned as
// (nil, false, err wrapping ErrCorrupt) — callers regenerate either way.
func (s *Store) Get(kind string, key Key) ([]byte, bool, error) {
	body, err := frame.ReadFile(s.path(kind, key), artMagic)
	if err == nil {
		s.hits.Add(1)
		return body, true, nil
	}
	s.misses.Add(1)
	switch {
	case os.IsNotExist(err):
		return nil, false, nil
	case errors.Is(err, ErrCorrupt):
		s.corrupt.Add(1)
		os.Remove(s.path(kind, key))
	}
	return nil, false, fmt.Errorf("artifact: %s entry: %w", kind, err)
}
