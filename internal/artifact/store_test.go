package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hetkg/internal/frame"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("fb15k\x01\x02\x03\x05\x08")
	key := KeyOf("test/v1", "fb15k", "tiny")
	if err := s.Put("dataset", key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("dataset", key)
	if err != nil || !ok {
		t.Fatalf("Get = (%v, %v), want hit", ok, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip mangled body: %q != %q", got, want)
	}
	if s.Hits() != 1 || s.Misses() != 0 || s.Writes() != 1 {
		t.Fatalf("counters hits=%d misses=%d writes=%d, want 1/0/1", s.Hits(), s.Misses(), s.Writes())
	}
}

func TestCleanMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("dataset", KeyOf("absent"))
	if ok || err != nil || got != nil {
		t.Fatalf("Get on empty store = (%v, %v), want clean miss", ok, err)
	}
	if s.Misses() != 1 || s.Hits() != 0 {
		t.Fatalf("counters hits=%d misses=%d, want 0/1", s.Hits(), s.Misses())
	}
}

// Corruption anywhere in the file — flipped body byte, truncation, foreign
// content — must be rejected with ErrCorrupt, counted, and cleaned up so the
// next Get is a plain miss.
func TestCorruptionRejected(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"flipped body byte": func(b []byte) []byte {
			b[len(b)/2] ^= 0x40
			return b
		},
		"truncated": func(b []byte) []byte { return b[:len(b)-3] },
		"foreign":   func([]byte) []byte { return []byte("not an artifact at all") },
	}
	for name, mangle := range corruptions {
		t.Run(name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key := KeyOf("test/v1", "victim")
			if err := s.Put("part", key, []byte("some body bytes")); err != nil {
				t.Fatal(err)
			}
			path := s.path("part", key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			_, ok, err := s.Get("part", key)
			if ok {
				t.Fatal("Get returned a corrupt entry as a hit")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get error = %v, want ErrCorrupt", err)
			}
			if s.Corrupt() != 1 {
				t.Fatalf("Corrupt() = %d, want 1", s.Corrupt())
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry not removed (stat err %v)", err)
			}
			// After cleanup the same key is a clean miss.
			_, ok, err = s.Get("part", key)
			if ok || err != nil {
				t.Fatalf("Get after cleanup = (%v, %v), want clean miss", ok, err)
			}
		})
	}
}

func TestKeyOfFraming(t *testing.T) {
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("length prefixing failed: KeyOf(ab,c) == KeyOf(a,bc)")
	}
	if KeyOf("a", "b") != KeyOf("a", "b") {
		t.Fatal("KeyOf is not deterministic")
	}
}

func TestHasherMatchesContent(t *testing.T) {
	h1, h2 := NewHasher(), NewHasher()
	h1.Write([]byte("hello "))
	h1.Write([]byte("world"))
	h2.Write([]byte("hello world"))
	if h1.Key() != h2.Key() {
		t.Fatal("Hasher depends on write chunking")
	}
	h3 := NewHasher()
	h3.Write([]byte("hello worle"))
	if h3.Key() == h2.Key() {
		t.Fatal("Hasher ignored content change")
	}
}

func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", KeyOf("x"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") should fail")
	}
}

// TestOpenSweepsOlderEntries plants an entry an older container version
// wrote beside a live one and a file that is no entry: Open deletes the
// old entry, which this build can never read, and leaves the other two.
func TestOpenSweepsOlderEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("dataset", KeyOf("live"), []byte("body")); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%s%d\n", artMagicPrefix, artVersion); artMagic != want {
		t.Fatalf("artMagic %q, want %q", artMagic, want)
	}
	live := s.path("dataset", KeyOf("live"))
	old := filepath.Join(dir, "dataset-"+string(KeyOf("old"))+".art")
	if err := frame.WriteFile(old, "HETKG-ART-v1\n", []byte("gob")); err != nil {
		t.Fatal(err)
	}
	notes := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(notes, []byte(artMagicPrefix+"0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	want := []string{filepath.Base(live), "notes.txt"}
	if !slices.Equal(left, want) {
		t.Errorf("left %v after Open, want %v", left, want)
	}
}
