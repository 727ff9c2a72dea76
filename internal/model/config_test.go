package model_test

import (
	"errors"
	"reflect"
	"testing"

	"roadside/internal/model"
)

func TestConfigRoundTrip(t *testing.T) {
	for _, m := range []model.Objective{
		model.Probabilistic{Reception: 1},
		model.Probabilistic{Reception: 0.25},
		model.DefaultResistance(),
		model.Resistance{Scale: 1234, DenseLimit: 7, Tol: 1e-8, MaxIter: 42},
		model.DefaultCapacity(),
		model.Capacity{RangeFeet: 300, SpeedFtPerSec: 44, DataRateBps: 1e7, AdSizeBits: 1e6, MinCompletion: 0.25},
	} {
		data, err := model.EncodeConfig(m)
		if err != nil {
			t.Fatalf("%v: encode: %v", m, err)
		}
		back, err := model.ParseConfig(data)
		if err != nil {
			t.Fatalf("%v: parse %s: %v", m, data, err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Errorf("round trip %s: %#v != %#v", data, back, m)
		}
	}
}

func TestParseConfigErrors(t *testing.T) {
	for name, data := range map[string]string{
		"empty":          ``,
		"not json":       `{`,
		"wrong type":     `[1, 2]`,
		"unknown model":  `{"name": "quantum"}`,
		"no name":        `{"reception": 0.5}`,
		"unknown field":  `{"name": "probabilistic", "receptionn": 0.5}`,
		"trailing data":  `{"name": "probabilistic", "reception": 1} {"x": 1}`,
		"bad reception":  `{"name": "probabilistic", "reception": 7}`,
		"zero reception": `{"name": "probabilistic"}`,
		"bad scale":      `{"name": "resistance", "scale": -1}`,
		"zero scale":     `{"name": "resistance"}`,
		"bad capacity":   `{"name": "capacity", "range_feet": 100}`,
		"string number":  `{"name": "capacity", "range_feet": "fast"}`,
	} {
		m, err := model.ParseConfig([]byte(data))
		if !errors.Is(err, model.ErrConfig) {
			t.Errorf("%s (%s): m=%v err=%v, want ErrConfig", name, data, m, err)
		}
	}
}

func TestParseConfigDefaults(t *testing.T) {
	// Resistance solver knobs may stay zero (meaning "use defaults") as
	// long as the scale is set.
	m, err := model.ParseConfig([]byte(`{"name": "resistance", "scale": 5000}`))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := m.(model.Resistance)
	if !ok || r.Scale != 5000 {
		t.Fatalf("parsed %#v, want Resistance{Scale: 5000}", m)
	}
}

func TestToConfigRejectsForeign(t *testing.T) {
	if _, err := model.ToConfig(nil); !errors.Is(err, model.ErrConfig) {
		t.Errorf("nil model: err = %v, want ErrConfig", err)
	}
	if _, err := model.EncodeConfig(foreignModel{}); !errors.Is(err, model.ErrConfig) {
		t.Errorf("foreign model: err = %v, want ErrConfig", err)
	}
}

// foreignModel is an Objective not defined by this package.
type foreignModel struct{ model.Probabilistic }

func (foreignModel) Name() string { return "foreign" }
