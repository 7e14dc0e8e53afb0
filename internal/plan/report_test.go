package plan

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"hetkg/internal/plan/benchfmt"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"A", "LongColumn"},
	}
	tab.AddRow("hello", 1.23456)
	tab.AddRow(42, Dur(1500*time.Microsecond).Wall())
	tab.Note("a note %d", 1)
	s := tab.String()
	if !strings.Contains(s, "== x: demo ==") {
		t.Errorf("missing title in:\n%s", s)
	}
	if !strings.Contains(s, "1.235") {
		t.Errorf("float not formatted in:\n%s", s)
	}
	if !strings.Contains(s, "note: a note 1") {
		t.Errorf("missing note in:\n%s", s)
	}
	lines := strings.Split(s, "\n")
	if len(lines) < 6 {
		t.Errorf("too few lines:\n%s", s)
	}
	// The snapshot is the same rows, unrounded: labels name the row, a
	// duration is keyed _ms, and a wall cell stays out of the values.
	want := []benchfmt.Row{
		{Name: "a=hello", Values: map[string]float64{"longcolumn": 1.23456}, Wall: map[string]float64{}},
		{Name: "a=42", Values: map[string]float64{}, Wall: map[string]float64{"longcolumn_ms": 1.5}},
	}
	if got := tab.Snapshot(); got.Name != "x" || !reflect.DeepEqual(got.Rows, want) {
		t.Errorf("snapshot = %+v, want rows %+v", got, want)
	}
}
