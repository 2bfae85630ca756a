package adhoc

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/performability/csrl/internal/modelfile"
)

// TestStationJSONMatchesModel pins testdata/station.json, the model file
// the CLI smokes and the docs load, byte for byte to the encoding of the
// case-study MRM. Regenerate the file from modelfile.Encode(Model()) when
// the model changes.
func TestStationJSONMatchesModel(t *testing.T) {
	m, err := Model()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := modelfile.Encode(&want, m); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "testdata", "station.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("testdata/station.json (%d bytes) differs from modelfile.Encode(Model()) (%d bytes)", len(got), want.Len())
	}
}
