package fleet

import (
	"bytes"
	"strings"
	"testing"
)

// The proxy's shard-key parsers read raw client input before any replica
// validates it; both must never panic. Seed corpora live under
// testdata/fuzz.

// FuzzQueryNetwork: a query without a "network=" pair yields no key.
func FuzzQueryNetwork(f *testing.F) {
	f.Fuzz(func(t *testing.T, rawQuery string) {
		net := queryNetwork(rawQuery)
		if net != "" && !strings.Contains(rawQuery, "network=") {
			t.Fatalf("queryNetwork(%q) = %q without a network parameter", rawQuery, net)
		}
	})
}

// FuzzJSONStringField: a found value never contains a quote, and the field
// name appears quoted in the body.
func FuzzJSONStringField(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, name string) {
		v := jsonStringField(body, name)
		if v == "" {
			return
		}
		if strings.Contains(v, `"`) {
			t.Fatalf("jsonStringField(%q, %q) = %q contains a quote", body, name, v)
		}
		if !bytes.Contains(body, []byte(`"`+name+`"`)) {
			t.Fatalf("jsonStringField(%q, %q) = %q but the body lacks the field", body, name, v)
		}
	})
}
