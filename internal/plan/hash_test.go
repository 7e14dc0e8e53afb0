package plan

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"hetkg/internal/dataset"
	"hetkg/internal/train"
)

// TestHashFieldOrderIndependence feeds the same configuration through two
// plan files whose run keys appear in reversed orders: the canonical hash
// must not see declaration order.
func TestHashFieldOrderIndependence(t *testing.T) {
	a := `
plan: p
run:
  dataset: wn18
  scale: tiny
  codec: int8
  lr: 0.05
  epochs: 4
`
	b := `
plan: p
run:
  epochs: 4
  lr: 0.05
  codec: int8
  scale: tiny
  dataset: wn18
`
	pa, err := Parse([]byte(a))
	if err != nil {
		t.Fatalf("Parse a: %v", err)
	}
	pb, err := Parse([]byte(b))
	if err != nil {
		t.Fatalf("Parse b: %v", err)
	}
	if Hash(pa.Base) != Hash(pb.Base) {
		t.Fatalf("hashes differ across key orders:\n%s\nvs\n%s", Canonical(pa.Base), Canonical(pb.Base))
	}
}

// TestHashSpelledOutDefaults: a plan that spells every default out hashes
// identically to one that leaves them unset (Normalize fills them), and to
// the zero RunConfig — the hash every release has given it.
func TestHashSpelledOutDefaults(t *testing.T) {
	explicit, err := Parse([]byte(`
plan: p
run:
  dataset: fb15k
  scale: small
  system: hetkg-d
  model: transe
  loss: logistic
  optimizer: adagrad
  margin: 1
  lr: 0.1
  negs: 8
  chunk: 8
  machines: 4
  workers: 1
  partitioner: metis
  staleness: 8
  prefetch: 16
  entityRatio: 0.25
  seed: 42
`))
	if err != nil {
		t.Fatal(err)
	}
	const pinned = "755569593f417da0176827cd30170dc5dc41afdce90f3e1f794d66f3d23e6093"
	if h := Hash(explicit.Base); h != pinned || Hash(train.RunConfig{}) != pinned {
		t.Fatalf("spelled-out defaults hash %s, the zero config %s; both must be %s:\n%s",
			h, Hash(train.RunConfig{}), pinned, Canonical(explicit.Base))
	}
}

// TestZeroRunConfigIsTrainDefaults: there is one default table, so a
// RunConfig left zero is exactly what `hetkg train` with no flags trains —
// the same resolved config and the same hash.
func TestZeroRunConfigIsTrainDefaults(t *testing.T) {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	flags := BindFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	var zero train.RunConfig
	zero.Normalize()
	if !reflect.DeepEqual(zero, *flags) {
		t.Errorf("RunConfig{} resolves to\n%+v\nhetkg train's flag defaults to\n%+v", zero, *flags)
	}
	if zero.Scale != dataset.Small || zero.System != train.SystemHETKGD || zero.Seed != 42 || zero.Margin != 1 {
		t.Errorf("RunConfig{} resolves to scale %v, system %v, seed %d, margin %v; want small, hetkg-d, 42, 1",
			zero.Scale, zero.System, zero.Seed, zero.Margin)
	}
	if Canonical(train.RunConfig{}) != Canonical(*flags) || Hash(train.RunConfig{}) != Hash(*flags) {
		t.Errorf("canonical forms differ:\n%s\nvs\n%s", Canonical(train.RunConfig{}), Canonical(*flags))
	}
}

// TestHashSensitivity mutates every plan-tagged field in turn and demands a
// hash change: no knob may be semantically invisible.
func TestHashSensitivity(t *testing.T) {
	var base train.RunConfig
	base.Normalize()
	baseHash := Hash(base)
	seen := map[string]string{baseHash: "(base)"}
	for _, f := range specFields() {
		key := f.Tag.Get("plan")
		rc := base
		fv := reflect.ValueOf(&rc).Elem().FieldByIndex(f.Index)
		switch p := fv.Addr().Interface().(type) {
		case *dataset.Scale:
			*p = dataset.Tiny
		case *train.System:
			*p = train.SystemPBG
		default:
			switch fv.Kind() {
			case reflect.String:
				fv.SetString(fv.String() + "-mut")
			case reflect.Int, reflect.Int64:
				fv.SetInt(fv.Int() + 101)
			case reflect.Float64:
				fv.SetFloat(fv.Float() + 0.625)
			case reflect.Bool:
				fv.SetBool(!fv.Bool())
			default:
				t.Fatalf("field %s has untested kind %s", key, fv.Kind())
			}
		}
		h := Hash(rc)
		if h == baseHash {
			t.Errorf("mutating %q did not change the hash", key)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("mutations of %q and %s collide", key, prev)
		}
		seen[h] = key
	}
}

// TestCanonicalFormat pins the serialization's shape: versioned first line,
// one sorted key=value line per field, quoted strings, and a scale and a
// system in their plan spelling.
func TestCanonicalFormat(t *testing.T) {
	c := Canonical(train.RunConfig{})
	lines := strings.Split(strings.TrimSuffix(c, "\n"), "\n")
	if lines[0] != specHashVersion {
		t.Fatalf("first line = %q, want %q", lines[0], specHashVersion)
	}
	keys := SpecKeys()
	if len(lines)-1 != len(keys) {
		t.Fatalf("%d value lines, want %d", len(lines)-1, len(keys))
	}
	for i, key := range keys {
		if !strings.HasPrefix(lines[i+1], key+"=") {
			t.Errorf("line %d = %q, want prefix %q", i+1, lines[i+1], key+"=")
		}
	}
	for _, want := range []string{`dataset="fb15k"`, `scale="small"`, `system="hetkg-d"`} {
		if !strings.Contains(c, want) {
			t.Errorf("canonical form lacks %s:\n%s", want, c)
		}
	}
	if !sortedStrings(keys) {
		t.Errorf("SpecKeys not sorted: %v", keys)
	}
}

func TestShortHash(t *testing.T) {
	r := Run{Hash: Hash(train.RunConfig{})}
	if sh := r.ShortHash(); len(sh) != 12 || !strings.HasPrefix(r.Hash, sh) {
		t.Fatalf("ShortHash = %q for hash %q", sh, r.Hash)
	}
}

func sortedStrings(ss []string) bool {
	for i := 1; i < len(ss); i++ {
		if ss[i-1] >= ss[i] {
			return false
		}
	}
	return true
}
