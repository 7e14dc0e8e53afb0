// Package artifact is a content-addressed on-disk cache for expensive,
// deterministic intermediates: synthetic datasets, partitioner outputs, and
// anything else that is a pure function of a run configuration. Entries are
// gob-encoded files keyed by a SHA-256 of the inputs that produced them, so
// a warm cache turns regeneration into a read, and a changed input can never
// alias a stale entry (the key changes with it).
//
// The store is shared freely between processes: entries are internal/frame
// files (magic, length, CRC-32, atomic rename — the container internal/ckpt
// uses too), so concurrent writers of the same key race benignly (identical
// content, last rename wins), readers never observe a torn entry, and
// anything unreadable is reported as a typed ErrCorrupt so callers can fall
// back to regeneration instead of trusting damaged bytes.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sync/atomic"

	"hetkg/internal/frame"
)

// artMagic identifies artifact files and versions the container format.
const artMagic = "HETKG-ART-v1\n"

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

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: creating store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Hits returns how many Gets were served from disk since Open.
func (s *Store) Hits() int64 { return s.hits.Load() }

// Misses returns how many Gets found nothing usable (absent or corrupt).
func (s *Store) Misses() int64 { return s.misses.Load() }

// Corrupt returns how many Gets rejected a damaged entry (a subset of
// Misses).
func (s *Store) Corrupt() int64 { return s.corrupt.Load() }

// Writes returns how many entries Put installed since Open.
func (s *Store) Writes() int64 { return s.writes.Load() }

// path places an entry; kind is a short human-readable label ("dataset",
// "partition") that makes `ls` on the cache legible without affecting
// addressing — the key alone decides identity.
func (s *Store) path(kind string, key Key) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%s.art", kind, key))
}

// Put gob-encodes v and atomically installs it under (kind, key).
func (s *Store) Put(kind string, key Key, v any) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(v); err != nil {
		return fmt.Errorf("artifact: encoding %s entry: %w", kind, err)
	}
	if err := frame.WriteFile(s.path(kind, key), artMagic, body.Bytes()); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// Get decodes the entry under (kind, key) into v. A clean miss returns
// (false, nil). A damaged entry is deleted, counted, and returned as
// (false, err wrapping ErrCorrupt) — callers regenerate either way.
func (s *Store) Get(kind string, key Key, v any) (bool, error) {
	body, err := frame.ReadFile(s.path(kind, key), artMagic)
	if err == nil {
		if err = gob.NewDecoder(bytes.NewReader(body)).Decode(v); err == nil {
			s.hits.Add(1)
			return true, nil
		}
		err = fmt.Errorf("%w: decoding body: %v", ErrCorrupt, err)
	}
	s.misses.Add(1)
	switch {
	case os.IsNotExist(err):
		return false, nil
	case errors.Is(err, ErrCorrupt):
		s.corrupt.Add(1)
		os.Remove(s.path(kind, key))
	}
	return false, fmt.Errorf("artifact: %s entry: %w", kind, err)
}
