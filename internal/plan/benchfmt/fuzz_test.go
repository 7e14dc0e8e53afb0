package benchfmt

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// FuzzBenchfmtRead feeds arbitrary bytes to the reader `hetkg compare` runs
// on both of its snapshots. Nothing may panic. An accepted snapshot is
// written back as WriteDir writes it, and those bytes must read back to a
// snapshot that writes the same bytes again. A copy of its first row added
// under the same name must be refused.
func FuzzBenchfmtRead(f *testing.F) {
	for _, path := range []string{"../../../BENCH_codecs.json", "../../../examples/plans/BENCH_baseline.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{
		`{"schema":"hetkg-bench/v3","name":"x","rows":[]}`,
		`{"schema":"hetkg-bench/v3","name":"x","meta":{"goarch":"arm64"},"rows":[{"name":"r","values":{"a":-0},"wall":{}}]}`,
		`{"schema":"hetkg-bench/v3","name":"x","rows":[{"name":"r","values":{"a":1}},{"name":"r","values":{"a":2}}]}`,
		`{"schema":"hetkg-bench/v3","name":"x","rows":[{"name":"r","values":{"a":1e308,"b":5e-324}}]}`,
		`{"schema":"hetkg-bench/v2","name":"x","rows":[]}`,
		`{"schema":"hetkg-bench/v3","name":"<&> ","rows":null}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := parse(data, "fuzz")
		if err != nil {
			return
		}
		written, err := encode(snap)
		if err != nil {
			t.Fatalf("writing an accepted snapshot: %v", err)
		}
		back, err := parse(written, "written")
		if err != nil {
			t.Fatalf("reading back a written snapshot: %v\n%s", err, written)
		}
		again, err := encode(back)
		if err != nil {
			t.Fatalf("writing a read-back snapshot: %v", err)
		}
		if !bytes.Equal(again, written) {
			t.Fatalf("a written snapshot reads back different:\n%s\nvs\n%s", written, again)
		}
		if len(back.Rows) == 0 {
			return
		}
		back.Rows = append(back.Rows, back.Rows[0])
		twice, err := encode(back)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parse(twice, "twice"); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("a snapshot naming row %q twice: %v, want a refusal", back.Rows[0].Name, err)
		}
	})
}
