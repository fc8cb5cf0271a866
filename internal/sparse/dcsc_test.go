package sparse

import (
	"testing"
)

func TestDCSCRoundTrip(t *testing.T) {
	for _, a := range []*CSR[int64]{
		NewCSR[int64](0, 0),
		NewCSR[int64](5, 7),
		ErdosRenyi[int64](40, 3, 11),
		ErdosRenyi[int64](64, 0.2, 12), // hypersparse: nnz << nrows
		Ring[int64](9),
	} {
		d := ToDCSC(a)
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		if got, want := d.NNZ(), a.NNZ(); got != want {
			t.Fatalf("nnz %d, want %d", got, want)
		}
		back := d.ToCSR()
		if !back.Equal(a) {
			t.Fatalf("round trip differs for %v", a)
		}
	}
}

func TestDCSCHypersparse(t *testing.T) {
	dense := Ring[int64](8)
	if Hypersparse(dense) {
		t.Error("ring flagged hypersparse")
	}
	sp := NewCSR[int64](100, 100)
	sp.ColIdx = append(sp.ColIdx, 3)
	sp.Val = append(sp.Val, 1)
	for i := 42; i < len(sp.RowPtr); i++ {
		sp.RowPtr[i] = 1
	}
	if !Hypersparse(sp) {
		t.Error("1-entry 100-row block not flagged hypersparse")
	}
	d := ToDCSC(sp)
	if d.NzRows() != 1 {
		t.Fatalf("NzRows = %d, want 1", d.NzRows())
	}
	r, cols, vals := d.RowAt(0)
	if r != 41 || len(cols) != 1 || cols[0] != 3 || vals[0] != 1 {
		t.Fatalf("RowAt(0) = (%d, %v, %v)", r, cols, vals)
	}
}

func TestDCSCFromCSRReusesBuffers(t *testing.T) {
	a := ErdosRenyi[int64](50, 4, 13)
	var d DCSC[int64]
	d.FromCSR(a)
	p0 := &d.ColIdx[0]
	d.FromCSR(a) // same matrix: no growth, same backing arrays
	if p0 != &d.ColIdx[0] {
		t.Error("FromCSR reallocated on a warm conversion")
	}
	if !d.ToCSR().Equal(a) {
		t.Error("warm round trip differs")
	}
}

// FuzzDCSC drives the CSR↔DCSC round trip and iteration-order equivalence
// from fuzzed triplets: conversion must preserve every entry bitwise, and
// walking the compressed rows must visit the same (row, col, val) sequence
// as walking the CSR rows. The same matrices also drive the SUMMA panel
// primitives, SubMatrixInto and RowView.
func FuzzDCSC(f *testing.F) {
	f.Add(uint16(8), uint16(8), uint32(12), int64(1))
	f.Add(uint16(100), uint16(3), uint32(2), int64(7)) // hypersparse
	f.Add(uint16(1), uint16(200), uint32(50), int64(3))
	f.Add(uint16(60), uint16(90), uint32(300), int64(0x1f2e3d4c5b6a7988)) // interior window
	f.Fuzz(func(t *testing.T, nr16, nc16 uint16, nnz32 uint32, seed int64) {
		nr := int(nr16%200) + 1
		nc := int(nc16%200) + 1
		nnz := int(nnz32 % 400)
		rows := make([]int, nnz)
		cols := make([]int, nnz)
		vals := make([]int64, nnz)
		s := seed
		for k := 0; k < nnz; k++ {
			s = s*6364136223846793005 + 1442695040888963407
			rows[k] = int(uint64(s)>>33) % nr
			s = s*6364136223846793005 + 1442695040888963407
			cols[k] = int(uint64(s)>>33) % nc
			vals[k] = s >> 48
		}
		a, err := CSRFromTriplets(nr, nc, rows, cols, vals)
		if err != nil {
			t.Fatal(err)
		}
		d := ToDCSC(a)
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		if !d.ToCSR().Equal(a) {
			t.Fatal("DCSC round trip differs from source CSR")
		}
		// Iteration-order equivalence: the doubly-compressed walk must
		// reproduce the CSR walk exactly, skipping only empty rows.
		k := 0
		for i := 0; i < a.NRows; i++ {
			cs, vs := a.Row(i)
			if len(cs) == 0 {
				continue
			}
			r, dcs, dvs := d.RowAt(k)
			k++
			if r != i || len(dcs) != len(cs) {
				t.Fatalf("row %d: DCSC has (%d, %d cols), want (%d, %d)", k-1, r, len(dcs), i, len(cs))
			}
			for j := range cs {
				if dcs[j] != cs[j] || dvs[j] != vs[j] {
					t.Fatalf("row %d col %d: (%d,%v) vs CSR (%d,%v)", i, j, dcs[j], dvs[j], cs[j], vs[j])
				}
			}
		}
		if k != d.NzRows() {
			t.Fatalf("visited %d compressed rows, DCSC lists %d", k, d.NzRows())
		}
		// Panel extraction on the same matrix: a seeded window cut into a
		// dirty destination, and a row-range view, must match the
		// brute-force window.
		u := uint64(seed)
		r0 := int(u % uint64(nr+1))
		r1 := r0 + int((u>>8)%uint64(nr-r0+1))
		c0 := int((u >> 16) % uint64(nc+1))
		c1 := c0 + int((u>>24)%uint64(nc-c0+1))
		var dst CSR[int64]
		a.SubMatrixInto(&dst, 0, nr, 0, nc)
		a.SubMatrixInto(&dst, r0, r1, c0, c1)
		if !dst.Equal(windowRef(a, r0, r1, c0, c1)) {
			t.Fatalf("SubMatrixInto [%d,%d)x[%d,%d) differs from the reference", r0, r1, c0, c1)
		}
		a.RowView(&dst, r0, r1)
		if !dst.Equal(windowRef(a, r0, r1, 0, nc)) {
			t.Fatalf("RowView [%d,%d) differs from the reference", r0, r1)
		}
	})
}
