package model_test

import (
	"bytes"
	"testing"

	"roadside/internal/model"
)

// FuzzModelConfig feeds arbitrary bytes through the model-config codec.
// Parsable configs must round-trip ParseConfig -> EncodeConfig ->
// ParseConfig to the same canonical bytes and the same model; everything
// else must come back as ErrConfig-wrapped errors, never a panic. A
// checked-in corpus under testdata/fuzz seeds the interesting shapes
// (every model, default resolution, unknown fields, trailing data).
func FuzzModelConfig(f *testing.F) {
	for _, m := range []model.Objective{
		model.Probabilistic{Reception: 1},
		model.DefaultResistance(),
		model.DefaultCapacity(),
	} {
		data, err := model.EncodeConfig(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"name": "quantum"}`))
	f.Add([]byte(`{"name": "resistance", "scale": 5000, "max_iter": 3}`))
	f.Add([]byte(`{"name": "probabilistic", "reception": 1e-300}`))
	f.Add([]byte(`{"name": "capacity", "range_feet": 1, "speed_ft_per_sec": 1, "data_rate_bps": 1, "ad_size_bits": 1}`))
	f.Add([]byte(`{"name": "probabilistic", "reception": 0.5} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := model.ParseConfig(data)
		if err != nil {
			return // malformed input must error, not panic
		}
		enc, err := model.EncodeConfig(m)
		if err != nil {
			t.Fatalf("parsed model %#v does not re-encode: %v", m, err)
		}
		back, err := model.ParseConfig(enc)
		if err != nil {
			t.Fatalf("canonical encoding %s does not re-parse: %v", enc, err)
		}
		if back != m {
			t.Fatalf("round trip drifted: %#v -> %s -> %#v", m, enc, back)
		}
		enc2, err := model.EncodeConfig(back)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not canonical: %s vs %s (err %v)", enc, enc2, err)
		}
		// Every parsed model must also survive an engine-facing identity
		// check: name and params are the digest inputs and must be
		// non-empty and stable.
		if m.Name() == "" || m.Params() == "" {
			t.Fatalf("parsed model has empty digest identity: %#v", m)
		}
	})
}
