package isa

import (
	"strconv"
	"sync"
	"testing"
)

const keyTestSrc = ".L0:\n\tvmovupd (%rsi,%rax,8), %ymm0\n\tvaddpd %ymm0, %ymm1, %ymm1\n\taddq $4, %rax\n\tcmpq %rdi, %rax\n\tjb .L0\n"

func keyTestBlock(t *testing.T) *Block {
	t.Helper()
	b, err := ParseBlock("k", "goldencove", DialectX86, keyTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// textKey is the content-key formula Key caches.
func textKey(b *Block) string {
	return b.Arch + "\x00" + strconv.Itoa(int(b.Dialect)) + "\x00" + b.Text()
}

// TestKeyFormula: Key is arch, dialect and text, excluding the name, and
// a second call returns the cached value.
func TestKeyFormula(t *testing.T) {
	b := keyTestBlock(t)
	if got, want := b.Key(), textKey(b); got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	cached := b.key.Load()
	if cached == nil {
		t.Fatal("Key did not cache")
	}
	b.Key()
	if b.key.Load() != cached {
		t.Fatal("a second Key call replaced the cached key")
	}
	other := keyTestBlock(t)
	other.Name = "another name"
	if other.Key() != b.Key() {
		t.Error("the name must not enter the key")
	}
}

// TestRenamedSharesKey: a Renamed copy carries its own name over the
// shared instructions and the one cached key string.
func TestRenamedSharesKey(t *testing.T) {
	b := keyTestBlock(t)
	r := b.Renamed("renamed")
	if r.Name != "renamed" || b.Name != "k" {
		t.Fatalf("names = %q, %q", b.Name, r.Name)
	}
	if &r.Instrs[0] != &b.Instrs[0] {
		t.Error("Renamed must share the instruction slice")
	}
	if r.Key() != textKey(r) || r.key.Load() != b.key.Load() {
		t.Error("Renamed must share the original's cached key")
	}
}

// TestCloneStartsUnkeyed: a clone of a keyed block may be mutated, and
// its key then follows the mutation while the original's does not.
func TestCloneStartsUnkeyed(t *testing.T) {
	b := keyTestBlock(t)
	orig := b.Key()
	c := b.Clone()
	if c.key.Load() != nil {
		t.Fatal("Clone must return an unkeyed copy")
	}
	c.Instrs[2].Operands[0].Imm = 8
	c.Instrs[2].Raw = ""
	if c.Key() != textKey(c) {
		t.Error("mutated clone's key does not follow its text")
	}
	if c.Key() == orig || b.Key() != orig {
		t.Error("clone and original keys must differ after the mutation, with the original unchanged")
	}
}

// TestKeyConcurrentFirstCall: goroutines racing on the first Key call all
// see one value (run under -race to check the publication).
func TestKeyConcurrentFirstCall(t *testing.T) {
	b := keyTestBlock(t)
	want := textKey(b)
	const n = 8
	keys := make([]string, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			keys[i] = b.Key()
		}(i)
	}
	start.Done()
	done.Wait()
	for i, k := range keys {
		if k != want {
			t.Fatalf("goroutine %d got %q, want %q", i, k, want)
		}
	}
}
