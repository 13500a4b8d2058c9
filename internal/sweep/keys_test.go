package sweep

import (
	"bytes"
	"strings"
	"testing"

	"incore/internal/uarch"
)

// paramBase reads a parameter's current value off a model.
func paramBase(t *testing.T, m *uarch.Model, param string) float64 {
	t.Helper()
	switch param {
	case "issue_width":
		return float64(m.IssueWidth)
	case "decode_width":
		return float64(m.DecodeWidth)
	case "retire_width":
		return float64(m.RetireWidth)
	case "rob_size":
		return float64(m.ROBSize)
	case "scheduler_size":
		return float64(m.SchedSize)
	case "phys_vec_regs":
		return float64(m.PhysVecRegs)
	case "phys_gp_regs":
		return float64(m.PhysGPRegs)
	case "load_latency":
		return float64(m.LoadLat)
	case "load_ports":
		return float64(m.LoadPorts.Count())
	case "store_agu_ports":
		return float64(m.StoreAGUPorts.Count())
	case "store_data_ports":
		return float64(m.StoreDataPorts.Count())
	case "cores_per_chip":
		return float64(m.CoresPerChip)
	case "base_freq_ghz":
		return m.BaseFreqGHz
	case "max_freq_ghz":
		return m.MaxFreqGHz
	case "mem_bandwidth_gbs":
		return m.Node.MemBWGBs
	case "tdp_watts":
		return m.Node.Freq.TDPWatts
	}
	t.Fatalf("no base value for parameter %q", param)
	return 0
}

// paramValues returns a low, the base and a high value for a parameter.
func paramValues(t *testing.T, m *uarch.Model, param string) []float64 {
	v := paramBase(t, m, param)
	if paramDefs[param].kind == kindFloat || paramDefs[param].kind == kindNode {
		return []float64{v / 2, v, v * 2}
	}
	if v <= 1 {
		return []float64{v, v + 1, v + 2}
	}
	return []float64{v - 1, v, v + 1}
}

// keyModels returns every built-in plus a model loaded from a machine
// file (with its own key and an unknown-instruction policy).
func keyModels(t *testing.T) []*uarch.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := uarch.MustGet("zen4").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	src := strings.Replace(buf.String(), `"key": "zen4"`, `"key": "zen4-file"`, 1)
	src = strings.Replace(src, "\n  \"instructions\":", "\n  \"unknown\": {\"latency\": 4},\n  \"instructions\":", 1)
	loaded, err := uarch.ReadJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Unknown == nil || loaded.Key != "zen4-file" {
		t.Fatal("loaded model lost its edits")
	}
	return append(uarch.All(), loaded)
}

// checkDerivedKeys compares a variant's derived identity with the one
// Reindex computes from scratch on a copy of it.
func checkDerivedKeys(t *testing.T, name string, v *uarch.Model) {
	t.Helper()
	scratch := cloneForMutation(v)
	if err := scratch.Reindex(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if v.Fingerprint() != scratch.Fingerprint() {
		t.Errorf("%s: derived fingerprint %.12s, from scratch %.12s", name, v.Fingerprint(), scratch.Fingerprint())
	}
	if v.PortSignature() != scratch.PortSignature() {
		t.Errorf("%s: derived port signature %.12s, from scratch %.12s", name, v.PortSignature(), scratch.PortSignature())
	}
	if v.CacheKey() != scratch.CacheKey() {
		t.Errorf("%s: derived cache key %s, from scratch %s", name, v.CacheKey(), scratch.CacheKey())
	}
}

// TestVariantKeysMatchFromScratch: for every model and every sweepable
// parameter at a low, the base and a high value, the variant's
// fingerprint, port signature and cache key equal the ones computed from
// scratch; a changed node parameter keeps the base's port signature, and
// any other changed parameter (the port counts among them) gets a new
// one.
func TestVariantKeysMatchFromScratch(t *testing.T) {
	for _, base := range keyModels(t) {
		for _, param := range Params() {
			baseVal := paramBase(t, base, param)
			for _, val := range paramValues(t, base, param) {
				name := base.Key + "/" + FormatParams([]ParamValue{{Param: param, Value: val}})
				v, err := applyParams(base, []ParamValue{{Param: param, Value: val}})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkDerivedKeys(t, name, v)
				if val == baseVal {
					if v.Fingerprint() != base.Fingerprint() {
						t.Errorf("%s: the base value changed the fingerprint", name)
					}
					continue
				}
				if v.Fingerprint() == base.Fingerprint() {
					t.Errorf("%s: fingerprint equals the base's", name)
				}
				if same := v.PortSignature() == base.PortSignature(); same != paramDefs[param].node {
					t.Errorf("%s: port signature shared with base = %v, want %v", name, same, paramDefs[param].node)
				}
			}
		}
	}
}

// TestCrossProductKeysMatchFromScratch covers multi-parameter
// assignments, node and in-core axes mixed, through Variants.
func TestCrossProductKeysMatchFromScratch(t *testing.T) {
	for _, base := range keyModels(t) {
		axes := []Axis{
			{Param: "mem_bandwidth_gbs", Values: []float64{50, 100}},
			{Param: "tdp_watts", Values: []float64{150, 300}},
			{Param: "load_ports", Values: []float64{float64(base.LoadPorts.Count()), float64(base.LoadPorts.Count() + 1)}},
		}
		vs, err := Variants(base, axes)
		if err != nil {
			t.Fatal(err)
		}
		fps := map[string]bool{}
		for _, v := range vs {
			checkDerivedKeys(t, base.Key+"/"+FormatParams(v.Params), v.Model)
			fps[v.Model.Fingerprint()] = true
		}
		if len(fps) != len(vs) {
			t.Errorf("%s: %d variants share %d fingerprints", base.Key, len(vs), len(fps))
		}
	}
}
