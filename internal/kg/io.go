package kg

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ReadTSV parses triples in the standard KGE benchmark format: one triple
// per line, "head<TAB>relation<TAB>tail", where the fields are arbitrary
// string labels (as in the FB15k/WN18 distribution files). Labels are
// interned into dense ids in first-seen order; the returned Vocab maps both
// directions. Blank lines and lines starting with '#' are skipped.
func ReadTSV(r io.Reader, name string) (*Graph, *Vocab, error) {
	v := NewVocab()
	var triples []Triple
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 3 {
			return nil, nil, fmt.Errorf("kg: %s line %d: want 3 tab-separated fields, got %d", name, lineNo, len(fields))
		}
		triples = append(triples, Triple{
			Head:     v.EntityID(fields[0]),
			Relation: v.RelationID(fields[1]),
			Tail:     v.EntityID(fields[2]),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("kg: reading %s: %w", name, err)
	}
	if len(triples) == 0 {
		return nil, nil, fmt.Errorf("kg: %s: no triples", name)
	}
	g, err := NewGraph(name, v.NumEntities(), v.NumRelations(), triples)
	if err != nil {
		return nil, nil, err
	}
	return g, v, nil
}

// WriteTSV writes the graph's triples using numeric labels (the inverse of
// ReadTSV with a numeric vocabulary).
func WriteTSV(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for _, t := range g.Triples {
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%d\n", t.Head, t.Relation, t.Tail); err != nil {
			return fmt.Errorf("kg: writing %s: %w", g.Name, err)
		}
	}
	return bw.Flush()
}

// Vocab interns string labels for entities and relations into dense ids.
type Vocab struct {
	entity   map[string]EntityID
	relation map[string]RelationID
	entNames []string
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{
		entity:   make(map[string]EntityID),
		relation: make(map[string]RelationID),
	}
}

// EntityID interns the label and returns its id.
func (v *Vocab) EntityID(label string) EntityID {
	if id, ok := v.entity[label]; ok {
		return id
	}
	id := EntityID(len(v.entNames))
	v.entity[label] = id
	v.entNames = append(v.entNames, label)
	return id
}

// RelationID interns the label and returns its id.
func (v *Vocab) RelationID(label string) RelationID {
	if id, ok := v.relation[label]; ok {
		return id
	}
	id := RelationID(len(v.relation))
	v.relation[label] = id
	return id
}

// EntityLabel returns the label for an interned entity id, or "" if unknown.
func (v *Vocab) EntityLabel(id EntityID) string {
	if int(id) < 0 || int(id) >= len(v.entNames) {
		return ""
	}
	return v.entNames[id]
}

// NumEntities returns the number of distinct entity labels interned.
func (v *Vocab) NumEntities() int { return len(v.entNames) }

// NumRelations returns the number of distinct relation labels interned.
func (v *Vocab) NumRelations() int { return len(v.relation) }
