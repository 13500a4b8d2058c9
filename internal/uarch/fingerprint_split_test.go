package uarch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// flatMachineFile is the machine file as one flat struct, encoded in one
// piece: the wire form the header/tail split must reproduce byte for
// byte, so fingerprints and store keys stay those of earlier builds.
type flatMachineFile struct {
	Key     string `json:"key"`
	Name    string `json:"name"`
	CPU     string `json:"cpu"`
	Vendor  string `json:"vendor"`
	Dialect string `json:"dialect"`

	Ports []string `json:"ports"`

	IssueWidth  int `json:"issue_width"`
	DecodeWidth int `json:"decode_width"`
	RetireWidth int `json:"retire_width"`
	ROBSize     int `json:"rob_size"`
	SchedSize   int `json:"scheduler_size"`
	PhysVecRegs int `json:"phys_vec_regs,omitempty"`
	PhysGPRegs  int `json:"phys_gp_regs,omitempty"`

	LoadPorts      []string `json:"load_ports"`
	StoreAGUPorts  []string `json:"store_agu_ports"`
	StoreDataPorts []string `json:"store_data_ports"`
	LoadLat        int      `json:"load_latency"`
	LoadWidthBits  int      `json:"load_width_bits"`
	StoreWidthBits int      `json:"store_width_bits"`
	WideLoadPorts  []string `json:"wide_load_ports,omitempty"`
	WideLoadBits   int      `json:"wide_load_bits,omitempty"`

	VecWidth      int     `json:"vec_width"`
	CoresPerChip  int     `json:"cores_per_chip"`
	BaseFreqGHz   float64 `json:"base_freq_ghz"`
	MaxFreqGHz    float64 `json:"max_freq_ghz"`
	FPVectorUnits int     `json:"fp_vector_units"`
	IntUnits      int     `json:"int_units"`

	Node *machineNode `json:"node,omitempty"`

	Unknown *machineUnknown `json:"unknown,omitempty"`

	Entries []machineEntry `json:"instructions"`
}

// flatEncoding encodes m through flatMachineFile with an indenting
// json.Encoder, field by field from the model.
func flatEncoding(t *testing.T, m *Model) []byte {
	t.Helper()
	mf := flatMachineFile{
		Key: m.Key, Name: m.Name, CPU: m.CPU, Vendor: m.Vendor,
		Dialect: m.Dialect.String(), Ports: m.Ports,
		IssueWidth: m.IssueWidth, DecodeWidth: m.DecodeWidth,
		RetireWidth: m.RetireWidth, ROBSize: m.ROBSize, SchedSize: m.SchedSize,
		PhysVecRegs: m.PhysVecRegs, PhysGPRegs: m.PhysGPRegs,
		LoadPorts:      m.maskNames(m.LoadPorts),
		StoreAGUPorts:  m.maskNames(m.StoreAGUPorts),
		StoreDataPorts: m.maskNames(m.StoreDataPorts),
		LoadLat:        m.LoadLat, LoadWidthBits: m.LoadWidthBits,
		StoreWidthBits: m.StoreWidthBits,
		WideLoadPorts:  m.maskNames(m.WideLoadPorts), WideLoadBits: m.WideLoadBits,
		VecWidth: m.VecWidth, CoresPerChip: m.CoresPerChip,
		BaseFreqGHz: m.BaseFreqGHz, MaxFreqGHz: m.MaxFreqGHz,
		FPVectorUnits: m.FPVectorUnits, IntUnits: m.IntUnits,
		Node: nodeToWire(m.Node),
	}
	if u := m.Unknown; u != nil {
		mf.Unknown = &machineUnknown{Ports: m.maskNames(u.Ports), Lat: u.Lat, Cycles: u.Cycles}
	}
	for _, e := range m.Entries {
		me := machineEntry{Mnemonic: e.Mnemonic, Sig: e.Sig, Width: e.Width, Lat: e.Lat, Notes: e.Notes}
		for _, u := range e.Uops {
			me.Uops = append(me.Uops, machineUop{
				Ports: m.maskNames(u.Ports), Cycles: u.Cycles, Kind: kindName(u.Kind),
			})
		}
		if me.Uops == nil {
			me.Uops = []machineUop{}
		}
		mf.Entries = append(mf.Entries, me)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(mf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// splitModels returns the built-ins plus variants exercising the
// optional header sections: an unknown policy, no node section, and an
// HTML-escaped label.
func splitModels(t *testing.T) []*Model {
	out := All()
	withUnknown := clone(t, MustGet("zen4"))
	withUnknown.Unknown = &UnknownPolicy{Ports: withUnknown.LoadPorts, Lat: 3, Cycles: 0.5}
	noNode := clone(t, MustGet("neoversev2"))
	noNode.Node = nil
	escaped := clone(t, MustGet("goldencove"))
	escaped.Name = "<what-if> & \"cove\""
	for _, m := range []*Model{withUnknown, noNode, escaped} {
		if err := m.Reindex(); err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// TestWriteJSONMatchesFlatEncoding pins the header ‖ tail split to the
// one-piece encoding, and the fingerprint to its sha256.
func TestWriteJSONMatchesFlatEncoding(t *testing.T) {
	for _, m := range splitModels(t) {
		want := flatEncoding(t, m)
		var got bytes.Buffer
		if err := m.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s (%s): WriteJSON differs from the one-piece encoding", m.Key, m.Name)
		}
		sum := sha256.Sum256(want)
		if fp := hex.EncodeToString(sum[:]); m.Fingerprint() != fp || m.computeFingerprint() != fp {
			t.Fatalf("%s (%s): fingerprint is not sha256 of the machine file", m.Key, m.Name)
		}
	}
}

// TestReindexFromDerivesIdentity: a node-level mutation shares the
// base's index and port signature and derives a fingerprint equal to the
// from-scratch one; an in-core mutation rebuilds everything.
func TestReindexFromDerivesIdentity(t *testing.T) {
	for _, base := range splitModels(t) {
		muts := []struct {
			name   string
			shared bool
			mut    func(m *Model)
		}{
			{"cores", true, func(m *Model) { m.CoresPerChip++ }},
			{"max freq", true, func(m *Model) { m.MaxFreqGHz += 0.25 }},
			{"label", true, func(m *Model) { m.Name += " (variant)" }},
			{"rob", false, func(m *Model) { m.ROBSize += 8 }},
			{"load latency", false, func(m *Model) { m.LoadLat++ }},
			{"load ports", false, func(m *Model) { m.LoadPorts &^= 1 << uint(m.LoadPorts.AppendIndices(nil)[0]) }},
			{"port name", false, func(m *Model) { m.Ports[0] += "'" }},
			{"unknown", false, func(m *Model) { m.Unknown = &UnknownPolicy{Lat: 7} }},
			{"entry latency", false, func(m *Model) {
				m.Entries = append([]Entry(nil), m.Entries...)
				m.Entries[0].Lat++
			}},
		}
		if base.Node != nil {
			muts = append(muts, struct {
				name   string
				shared bool
				mut    func(m *Model)
			}{"bandwidth", true, func(m *Model) { m.Node.MemBWGBs += 10 }})
		}
		for _, mt := range muts {
			v := *base
			v.Ports = append([]string(nil), base.Ports...)
			if base.Node != nil {
				nc := *base.Node
				v.Node = &nc
			}
			mt.mut(&v)
			if err := v.ReindexFrom(base); err != nil {
				t.Fatalf("%s/%s: %v", base.Key, mt.name, err)
			}
			if got, want := v.Fingerprint(), v.computeFingerprint(); got != want {
				t.Errorf("%s/%s: derived fingerprint %s, from scratch %s", base.Key, mt.name, got[:12], want[:12])
			}
			if got, want := v.PortSignature(), v.computePortSignature(); got != want {
				t.Errorf("%s/%s: derived port signature %s, from scratch %s", base.Key, mt.name, got[:12], want[:12])
			}
			if v.Fingerprint() == base.Fingerprint() {
				t.Errorf("%s/%s: mutation left the fingerprint unchanged", base.Key, mt.name)
			}
			if shared := v.tailCache == base.tailCache; shared != mt.shared {
				t.Errorf("%s/%s: shared base tables = %v, want %v", base.Key, mt.name, shared, mt.shared)
			}
		}
	}
}

// TestReindexFromValidates: the derived path revalidates like Reindex.
func TestReindexFromValidates(t *testing.T) {
	base := MustGet("goldencove")
	v := *base
	v.ROBSize = v.IssueWidth - 1
	if err := v.ReindexFrom(base); err == nil {
		t.Fatal("ReindexFrom accepted a ROB smaller than the issue width")
	}
}
