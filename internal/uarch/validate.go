package uarch

import "fmt"

// Validate checks structural consistency of a model: port references in
// range, positive cycle counts, sane frontend parameters. It returns the
// first problem found, or nil.
func (m *Model) Validate() error {
	if m.Key == "" || m.Name == "" {
		return fmt.Errorf("uarch: model missing key/name")
	}
	if len(m.Ports) == 0 || len(m.Ports) > 32 {
		return fmt.Errorf("uarch: model %s: %d ports out of range", m.Key, len(m.Ports))
	}
	// Port names must be unique: machine files reference ports by name,
	// and a duplicate would make that resolution ambiguous (the first
	// occurrence would silently win).
	seenName := make(map[string]bool, len(m.Ports))
	for _, p := range m.Ports {
		if p == "" {
			return fmt.Errorf("uarch: model %s: empty port name", m.Key)
		}
		if seenName[p] {
			return fmt.Errorf("uarch: model %s: duplicate port name %q", m.Key, p)
		}
		seenName[p] = true
	}
	allPorts := PortMask(1<<uint(len(m.Ports))) - 1
	checkMask := func(what string, mask PortMask) error {
		if mask == 0 {
			return fmt.Errorf("uarch: model %s: %s mask empty", m.Key, what)
		}
		if mask&^allPorts != 0 {
			return fmt.Errorf("uarch: model %s: %s mask references missing ports", m.Key, what)
		}
		return nil
	}
	if err := checkMask("load", m.LoadPorts); err != nil {
		return err
	}
	if err := checkMask("store-AGU", m.StoreAGUPorts); err != nil {
		return err
	}
	if err := checkMask("store-data", m.StoreDataPorts); err != nil {
		return err
	}
	if m.IssueWidth <= 0 || m.RetireWidth <= 0 || m.DecodeWidth <= 0 {
		return fmt.Errorf("uarch: model %s: non-positive frontend width", m.Key)
	}
	if m.ROBSize < m.IssueWidth || m.SchedSize <= 0 {
		return fmt.Errorf("uarch: model %s: implausible ROB/scheduler sizes", m.Key)
	}
	if m.LoadLat <= 0 {
		return fmt.Errorf("uarch: model %s: load latency must be positive", m.Key)
	}
	if m.VecWidth != 128 && m.VecWidth != 256 && m.VecWidth != 512 {
		return fmt.Errorf("uarch: model %s: unexpected vector width %d", m.Key, m.VecWidth)
	}
	if err := m.validateNode(); err != nil {
		return err
	}
	if u := m.Unknown; u != nil {
		// Zero fields mean "default", so only set fields are checked.
		if u.Ports&^allPorts != 0 {
			return fmt.Errorf("uarch: model %s: unknown-instruction policy references missing ports", m.Key)
		}
		if u.Lat < 0 {
			return fmt.Errorf("uarch: model %s: unknown-instruction policy has negative latency", m.Key)
		}
		if u.Cycles < 0 {
			return fmt.Errorf("uarch: model %s: unknown-instruction policy has negative cycles", m.Key)
		}
	}
	seen := make(map[entryKey]bool, len(m.Entries))
	for i := range m.Entries {
		e := &m.Entries[i]
		if e.Mnemonic == "" {
			return fmt.Errorf("uarch: model %s: entry %d has empty mnemonic", m.Key, i)
		}
		k := entryKey{e.Mnemonic, e.Sig, e.Width}
		if seen[k] {
			return fmt.Errorf("uarch: model %s: duplicate entry %v", m.Key, k)
		}
		seen[k] = true
		if e.Lat < 0 {
			return fmt.Errorf("uarch: model %s: %s: negative latency", m.Key, e.Mnemonic)
		}
		for j, u := range e.Uops {
			if u.Ports == 0 {
				return fmt.Errorf("uarch: model %s: %s µ-op %d has empty port mask", m.Key, e.Mnemonic, j)
			}
			if u.Ports&^allPorts != 0 {
				return fmt.Errorf("uarch: model %s: %s µ-op %d references missing ports", m.Key, e.Mnemonic, j)
			}
			if u.Cycles <= 0 {
				return fmt.Errorf("uarch: model %s: %s µ-op %d has non-positive cycles", m.Key, e.Mnemonic, j)
			}
		}
	}
	return nil
}
