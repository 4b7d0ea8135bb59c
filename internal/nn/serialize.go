package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"intellitag/internal/mat"
	"intellitag/internal/snapshot"
)

// paramBlob is the on-disk form of one parameter.
type paramBlob struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

// SaveParams writes the parameters' values to path, gob-encoded inside the
// snapshot envelope (magic + length + SHA-256), so a truncated or corrupted
// file is rejected at load time before any gob decoding. Parameter names
// must be unique within one snapshot; the offline-to-online model upload of
// the deployment uses this.
func SaveParams(path string, params []*Param) error {
	blobs := make([]paramBlob, 0, len(params))
	seen := map[string]bool{}
	for _, p := range params {
		if seen[p.Name] {
			return fmt.Errorf("nn: duplicate parameter name %q in snapshot", p.Name)
		}
		seen[p.Name] = true
		blobs = append(blobs, paramBlob{
			Name: p.Name, Rows: p.Value.Rows, Cols: p.Value.Cols,
			Data: append([]float64(nil), p.Value.Data...),
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(blobs); err != nil {
		return fmt.Errorf("nn: encode snapshot: %w", err)
	}
	// The envelope write goes through a temp file + rename, so the T+1 loop
	// can never upload a half-written snapshot under the final name.
	if err := snapshot.WriteChecksummed(path, buf.Bytes()); err != nil {
		return fmt.Errorf("nn: write snapshot: %w", err)
	}
	return nil
}

// readBlobs reads and integrity-checks one envelope file and decodes its
// parameter blobs. Truncation and bit rot surface as snapshot.ErrChecksum
// (test with errors.Is), never as a partial gob decode.
func readBlobs(path string) ([]paramBlob, error) {
	payload, err := snapshot.ReadChecksummed(path)
	if err != nil {
		return nil, fmt.Errorf("nn: read snapshot: %w", err)
	}
	var blobs []paramBlob
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&blobs); err != nil {
		return nil, fmt.Errorf("nn: decode snapshot: %w", err)
	}
	return blobs, nil
}

// LoadParams restores parameter values from a snapshot written by
// SaveParams, matching by name. Every parameter must be present with the
// same shape; extra entries in the snapshot are an error too, so drifted
// architectures fail loudly instead of loading partially.
func LoadParams(path string, params []*Param) error {
	blobs, err := readBlobs(path)
	if err != nil {
		return err
	}
	byName := make(map[string]paramBlob, len(blobs))
	for _, b := range blobs {
		byName[b.Name] = b
	}
	if len(byName) != len(params) {
		return fmt.Errorf("nn: snapshot has %d parameters, model has %d", len(byName), len(params))
	}
	for _, p := range params {
		b, ok := byName[p.Name]
		if !ok {
			return fmt.Errorf("nn: snapshot missing parameter %q", p.Name)
		}
		if b.Rows != p.Value.Rows || b.Cols != p.Value.Cols || len(b.Data) != len(p.Value.Data) {
			return fmt.Errorf("nn: parameter %q shape %dx%d, snapshot %dx%d with %d values",
				p.Name, p.Value.Rows, p.Value.Cols, b.Rows, b.Cols, len(b.Data))
		}
		copy(p.Value.Data, b.Data)
	}
	return nil
}

// SaveMatrix writes a single matrix (e.g. a frozen embedding table) to path.
func SaveMatrix(path string, m *mat.Matrix) error {
	return SaveParams(path, []*Param{{Name: "matrix", Value: m, Grad: mat.New(0, 0)}})
}

// LoadMatrix reads a matrix written by SaveMatrix. A blob whose values do
// not fill its declared shape is an error, not a panic: the checksum only
// proves the file is the one written, not that its writer was sane.
func LoadMatrix(path string) (*mat.Matrix, error) {
	blobs, err := readBlobs(path)
	if err != nil {
		return nil, fmt.Errorf("nn: load matrix: %w", err)
	}
	if len(blobs) != 1 {
		return nil, fmt.Errorf("nn: matrix file holds %d entries", len(blobs))
	}
	b := blobs[0]
	if b.Rows < 0 || b.Cols < 0 || len(b.Data) != b.Rows*b.Cols {
		return nil, fmt.Errorf("nn: load matrix: shape %dx%d with %d values", b.Rows, b.Cols, len(b.Data))
	}
	return mat.NewFrom(b.Rows, b.Cols, b.Data), nil
}
