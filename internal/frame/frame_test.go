package frame

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

const testMagic = "FRAME-TEST-v1\n"

func TestRoundTrip(t *testing.T) {
	for _, body := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xab}, 5000)} {
		got, err := Decode(testMagic, Encode(testMagic, body))
		if err != nil {
			t.Fatalf("Decode(%d bytes): %v", len(body), err)
		}
		if !bytes.Equal(got, body) {
			t.Errorf("round trip of %d bytes differs", len(body))
		}
	}
}

// TestEveryDamageIsCorrupt truncates at every length and flips every byte
// of a frame: each must come back as ErrCorrupt, never a body or a panic.
func TestEveryDamageIsCorrupt(t *testing.T) {
	whole := Encode(testMagic, []byte("the quick brown fox"))
	for cut := 0; cut < len(whole); cut++ {
		if _, err := Decode(testMagic, whole[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: error = %v, want ErrCorrupt", cut, err)
		}
	}
	for i := range whole {
		bad := bytes.Clone(whole)
		bad[i] ^= 0x80
		if _, err := Decode(testMagic, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: error = %v, want ErrCorrupt", i, err)
		}
	}
	if _, err := Decode(testMagic, append(bytes.Clone(whole), 0)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: error = %v, want ErrCorrupt", err)
	}
	if _, err := Decode("OTHER-KIND-v1\n", whole); !errors.Is(err, ErrCorrupt) {
		t.Errorf("foreign magic: error = %v, want ErrCorrupt", err)
	}
}

func TestFileInstallIsAtomicAndMissingIsNotCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry")
	if _, err := ReadFile(path, testMagic); !os.IsNotExist(err) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing file: error = %v, want os.IsNotExist and not ErrCorrupt", err)
	}
	for _, body := range []string{"first", "second"} {
		if err := WriteFile(path, testMagic, []byte(body)); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path, testMagic)
		if err != nil || string(got) != body {
			t.Fatalf("ReadFile = %q, %v; want %q", got, err, body)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory has %d entries, want 1 (temp litter?)", len(entries))
	}
	if err := WriteFile(filepath.Join(dir, "no-such-dir", "entry"), testMagic, nil); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}
