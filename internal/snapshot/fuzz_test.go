package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecodeSnapshot asserts the decoder is total: any byte stream either
// yields a fully validated snapshot or an error — never a panic, and never
// a snapshot that silently skipped validation. The committed corpus under
// testdata/fuzz/FuzzDecodeSnapshot seeds the interesting shapes: valid v2
// snapshots with and without drops, checksum-corrupted and truncated
// variants, a future version, and header-only fragments; testdata/v1.snap,
// a v1 header over a payload that names only the registry key, seeds the
// other side of the version skew. Decode rejects a v1 file from its header
// line, so the reference suite a real one embedded would add nothing.
func FuzzDecodeSnapshot(f *testing.F) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add([]byte{})
	f.Add([]byte("wpredsnap v2 deadbeef\n{}"))
	f.Add([]byte("wpredsnap v99 deadbeef\n{}"))
	f.Add([]byte("wpredsnap v2\n"))
	f.Add([]byte(`{"version":2}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			if s != nil {
				t.Fatal("Decode returned both a snapshot and an error")
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("error %v wraps neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		// A successful decode must have survived full validation: a
		// complete key, a selection, a report for every drop, and a
		// re-encode that decodes to the same snapshot.
		if s.Selection == "" || s.Metric == "" || s.Model == "" || len(s.State.Selected) == 0 {
			t.Fatalf("decoded snapshot with an empty key or state: %+v", s)
		}
		for _, d := range s.State.Dropped {
			if d.Report == nil {
				t.Fatalf("decoded drop %q without its report", d.ID)
			}
		}
		var buf bytes.Buffer
		if err := Encode(&buf, s); err != nil {
			t.Fatalf("re-encoding a decoded snapshot failed: %v", err)
		}
		s2, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if !reflect.DeepEqual(s2, s) {
			t.Fatalf("snapshot changed across re-encode:\n%+v\nvs\n%+v", s2, s)
		}
	})
}
