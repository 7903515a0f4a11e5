package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"impulse/internal/colres"
)

// TestColumnarGoldenRoundTrip is the schema-equivalence pin for the
// columnar result pipeline: lowering the golden grid to a blob,
// decoding it, and rendering the JSON view must reproduce
// testdata/grid_golden.json byte for byte. This is what lets the
// service archive blobs instead of rendered views — any view can be
// reconstructed from the columns with zero drift.
func TestColumnarGoldenRoundTrip(t *testing.T) {
	g := goldenGrid()
	blob := g.Columnar()
	doc, err := colres.Decode(blob)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	var got bytes.Buffer
	if err := colres.WriteGridJSON(doc, &got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "grid_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("JSON view of decoded blob drifted from golden file\n--- got ---\n%s--- want ---\n%s",
			got.Bytes(), want)
	}
}

// TestColumnarViewsMatchDirectRenderings: the text table and the SVG
// chart rendered from a decoded blob are byte-identical to rendering
// the grid directly.
func TestColumnarViewsMatchDirectRenderings(t *testing.T) {
	g := goldenGrid()
	doc, err := colres.Decode(g.Columnar())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	var direct, viaBlob bytes.Buffer
	if err := g.Render(&direct); err != nil {
		t.Fatal(err)
	}
	if err := colres.RenderText(doc, &viaBlob); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), viaBlob.Bytes()) {
		t.Errorf("text view from blob differs from direct render\n--- blob ---\n%s--- direct ---\n%s",
			viaBlob.Bytes(), direct.Bytes())
	}

	direct.Reset()
	viaBlob.Reset()
	if err := SpeedupChart(g, &direct); err != nil {
		t.Fatal(err)
	}
	if err := SpeedupChartDoc(doc, &viaBlob); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), viaBlob.Bytes()) {
		t.Error("SVG chart from blob differs from direct render")
	}

	// The SVG view is coordinate-keyed: reversing the document's cell
	// order (still a valid blob per Decode) must not change one byte —
	// each bar stays in its policy's slot with its policy's color.
	rev := *doc
	rev.Cells = append([]colres.Cell(nil), doc.Cells...)
	for i, j := 0, len(rev.Cells)-1; i < j; i, j = i+1, j-1 {
		rev.Cells[i], rev.Cells[j] = rev.Cells[j], rev.Cells[i]
	}
	viaBlob.Reset()
	if err := SpeedupChartDoc(&rev, &viaBlob); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), viaBlob.Bytes()) {
		t.Error("SVG chart depends on cell encounter order, not coordinates")
	}
}

// TestColumnarEncodeDeterministic: the same grid lowers to the same
// blob (the archive digests blobs and the byte-budget LRU keys them by
// spec hash, so a re-run must reproduce its bytes).
func TestColumnarEncodeDeterministic(t *testing.T) {
	if !bytes.Equal(goldenGrid().Columnar(), goldenGrid().Columnar()) {
		t.Error("same grid encoded to different blobs")
	}
}
