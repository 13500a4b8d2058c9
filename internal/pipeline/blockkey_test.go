package pipeline

import (
	"strconv"
	"testing"

	"incore/internal/isa"
	"incore/internal/kernels"
)

// textBlockKey is BlockKey's formula rendered from scratch.
func textBlockKey(b *isa.Block) string {
	return b.Arch + "\x00" + strconv.Itoa(int(b.Dialect)) + "\x00" + b.Text()
}

// TestBlockKeyMatchesTextFormula: the cached block key equals the
// rendered-text formula for every suite block of all three
// architectures, for a Renamed copy and for a mutated Clone, so every
// memo and store key stays byte-identical to one built from the text.
func TestBlockKeyMatchesTextFormula(t *testing.T) {
	for _, arch := range []string{"goldencove", "neoversev2", "zen4"} {
		suite, err := kernels.Suite(arch)
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range suite {
			b := tb.Block
			if got, want := BlockKey(b), textBlockKey(b); got != want {
				t.Fatalf("%s/%s: BlockKey differs from the text formula", arch, b.Name)
			}
			if r := b.Renamed(b.Name + "/renamed"); BlockKey(r) != BlockKey(b) {
				t.Fatalf("%s/%s: a Renamed copy changed the key", arch, b.Name)
			}
			c := b.Clone()
			c.Instrs = c.Instrs[:len(c.Instrs)-1]
			if got, want := BlockKey(c), textBlockKey(c); got != want || got == BlockKey(b) {
				t.Fatalf("%s/%s: a mutated Clone's key does not follow its text", arch, b.Name)
			}
		}
	}
}
