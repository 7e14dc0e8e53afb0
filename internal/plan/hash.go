package plan

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"hetkg/internal/core"
)

// specHashVersion versions the canonical serialization. Bump it when the
// spec gains or loses a field or a value's formatting changes: every hash
// moves at once, which reads as a universal cache miss — never as a stale
// artifact served under a new meaning.
const specHashVersion = "hetkg-spec/v1"

// Canonical renders the normalized run's knobs as their canonical
// serialization: one `key=value` line per plan-tagged field, sorted by key.
// The encoding is field-order-independent by construction (the walk sorts on
// tag names, not declaration order) and injective per field (strings are
// quoted, so a value can never forge a neighboring key). Knobs the default
// table leaves zero hash as zero; core resolves them from the scale.
func Canonical(rc core.RunConfig) string {
	rc.Normalize()
	var b strings.Builder
	b.WriteString(specHashVersion)
	b.WriteByte('\n')
	v := reflect.ValueOf(rc)
	for _, f := range specFields() {
		b.WriteString(f.Tag.Get("plan"))
		b.WriteByte('=')
		b.WriteString(canonicalValue(v.FieldByIndex(f.Index)))
		b.WriteByte('\n')
	}
	return b.String()
}

// Hash is the canonical config hash: hex SHA-256 of Canonical. It names
// artifact-cache entries and ties BENCH rows to the exact configuration that
// produced them.
func Hash(rc core.RunConfig) string {
	sum := sha256.Sum256([]byte(Canonical(rc)))
	return hex.EncodeToString(sum[:])
}

// canonicalValue formats one field value deterministically; a scale or a
// system in its plan spelling.
func canonicalValue(fv reflect.Value) string {
	if m, ok := fv.Interface().(encoding.TextMarshaler); ok {
		return strconv.Quote(spelling(m))
	}
	switch fv.Kind() {
	case reflect.String:
		return strconv.Quote(fv.String())
	case reflect.Int, reflect.Int64:
		return strconv.FormatInt(fv.Int(), 10)
	case reflect.Float64:
		return strconv.FormatFloat(fv.Float(), 'g', -1, 64)
	case reflect.Bool:
		return strconv.FormatBool(fv.Bool())
	default:
		panic(fmt.Sprintf("plan: unhashable spec field kind %s", fv.Kind()))
	}
}

// spelling is a scale's or a system's flag and plan spelling. Decoding
// refuses any other value, so only a Go literal can hold one.
func spelling(m encoding.TextMarshaler) string {
	text, err := m.MarshalText()
	if err != nil {
		panic(fmt.Sprintf("plan: %v", err))
	}
	return string(text)
}
