package telemetry

import (
	"reflect"
	"testing"
)

// FuzzManifestDecode feeds arbitrary bytes to the manifest decoder. It
// must return an error, never panic, on hostile input, and every manifest
// it accepts must survive Encode and a second parse unchanged. The
// committed corpus (testdata/fuzz/FuzzManifestDecode) holds a valid
// manifest, a wrong schema, a truncated file and a manifest with empty
// optional maps.
func FuzzManifestDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return // rejected with an error: that is the contract
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted manifest failed to encode: %v", err)
		}
		again, err := parseManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the manifest:\nfirst  %+v\nsecond %+v", m, again)
		}
	})
}
