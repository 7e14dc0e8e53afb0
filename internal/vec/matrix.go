package vec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
)

// Matrix is a dense row-major embedding table: Rows vectors of Dim float32
// each, backed by a single contiguous slab so the whole table can be
// serialized or shared without per-row allocation.
type Matrix struct {
	Rows int
	Dim  int
	Data []float32
}

// NewMatrix allocates a zeroed Rows x Dim matrix.
func NewMatrix(rows, dim int) *Matrix {
	if rows < 0 || dim <= 0 {
		panic(fmt.Sprintf("vec: invalid matrix shape %dx%d", rows, dim))
	}
	return &Matrix{Rows: rows, Dim: dim, Data: make([]float32, rows*dim)}
}

// Row returns the i-th row as a slice sharing the underlying storage.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Dim : (i+1)*m.Dim : (i+1)*m.Dim]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Dim)
	copy(c.Data, m.Data)
	return c
}

// InitUniform fills m with values drawn uniformly from [-bound, bound].
// The standard KGE initialization uses bound = 6/sqrt(dim) (Bordes et al.).
func (m *Matrix) InitUniform(rng *rand.Rand, bound float32) {
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * bound
	}
}

// InitXavier fills m with the uniform Xavier/Glorot initialization for its
// dimension: bound = sqrt(6)/sqrt(dim).
func (m *Matrix) InitXavier(rng *rand.Rand) {
	m.InitUniform(rng, float32(math.Sqrt(6)/math.Sqrt(float64(m.Dim))))
}

// InitKGE applies the TransE-paper initialization: uniform in
// [-6/sqrt(d), 6/sqrt(d)] followed by per-row l2 normalization.
func (m *Matrix) InitKGE(rng *rand.Rand) {
	m.InitUniform(rng, float32(6/math.Sqrt(float64(m.Dim))))
	for i := 0; i < m.Rows; i++ {
		Normalize(m.Row(i))
	}
}

// Bytes returns the serialized size of the matrix payload in bytes. It is
// the figure used by the network cost model when a row crosses the wire.
func (m *Matrix) Bytes() int64 {
	return int64(len(m.Data)) * 4
}

// WriteTo serializes the matrix in a simple binary format:
// int64 rows, int64 dim, then rows*dim little-endian float32.
func (m *Matrix) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(m.Rows))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(m.Dim))
	k, err := bw.Write(hdr)
	n += int64(k)
	if err != nil {
		return n, err
	}
	buf := make([]byte, 4)
	for _, v := range m.Data {
		binary.LittleEndian.PutUint32(buf, math.Float32bits(v))
		k, err = bw.Write(buf)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// readChunk is how many floats ReadMatrix reads per call, and about the most
// it holds before any data has arrived.
const readChunk = 1 << 14

// ReadMatrix deserializes a matrix written by WriteTo, reading exactly its
// bytes from r. The header's shape is only a claim: the table grows with the
// data actually read (doubling, capped at the declared size) rather than
// being allocated from it, so a header declaring more than r holds fails at
// the end of r, having allocated about what r held.
func ReadMatrix(r io.Reader) (*Matrix, error) {
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("vec: reading matrix header: %w", err)
	}
	rows := int(binary.LittleEndian.Uint64(hdr[0:8]))
	dim := int(binary.LittleEndian.Uint64(hdr[8:16]))
	if rows < 0 || dim <= 0 || rows > 1<<40/max(dim, 1) {
		return nil, fmt.Errorf("vec: implausible matrix shape %dx%d", rows, dim)
	}
	n := rows * dim
	data := make([]float32, 0, min(n, readChunk))
	buf := make([]byte, 4*min(n, readChunk))
	for len(data) < n {
		if len(data) == cap(data) {
			grown := make([]float32, len(data), min(2*cap(data), n))
			copy(grown, data)
			data = grown
		}
		b := buf[:4*min(cap(data)-len(data), readChunk)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("vec: reading %dx%d matrix data after %d of %d floats: %w", rows, dim, len(data), n, err)
		}
		for i := 0; i < len(b); i += 4 {
			data = append(data, math.Float32frombits(binary.LittleEndian.Uint32(b[i:])))
		}
	}
	return &Matrix{Rows: rows, Dim: dim, Data: data}, nil
}
