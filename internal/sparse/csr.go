package sparse

import (
	"fmt"
	"sort"

	"repro/internal/semiring"
)

// CSR is a Compressed Sparse Rows matrix, the format the paper uses because
// it is what Chapel supports. It has three arrays: RowPtr is an integer array
// of length NRows+1 storing the start and end positions of the nonzeros of
// each row; ColIdx stores the column ids of nonzeros (sorted within each
// row); Val stores the numerical values. Random access to the start of a row
// is O(1).
type CSR[T semiring.Number] struct {
	NRows  int
	NCols  int
	RowPtr []int
	ColIdx []int
	Val    []T
}

// NewCSR returns an empty NRows×NCols matrix.
func NewCSR[T semiring.Number](nrows, ncols int) *CSR[T] {
	return &CSR[T]{NRows: nrows, NCols: ncols, RowPtr: make([]int, nrows+1)}
}

// NNZ returns the number of stored elements.
func (a *CSR[T]) NNZ() int { return len(a.ColIdx) }

// Row returns the column-id and value slices of row i (aliases into the
// matrix storage, not copies).
func (a *CSR[T]) Row(i int) (cols []int, vals []T) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// RowNNZ returns the number of stored elements in row i.
func (a *CSR[T]) RowNNZ(i int) int { return a.RowPtr[i+1] - a.RowPtr[i] }

// Get returns the value at (i, j) and whether it is stored; binary search
// within the row.
func (a *CSR[T]) Get(i, j int) (T, bool) {
	cols, vals := a.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k], true
	}
	var zero T
	return zero, false
}

// Clone returns a deep copy.
func (a *CSR[T]) Clone() *CSR[T] {
	return &CSR[T]{
		NRows:  a.NRows,
		NCols:  a.NCols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    append([]T(nil), a.Val...),
	}
}

// Equal reports whether a and b have identical dimensions, pattern and values.
func (a *CSR[T]) Equal(b *CSR[T]) bool {
	if a.NRows != b.NRows || a.NCols != b.NCols || len(a.ColIdx) != len(b.ColIdx) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// Validate checks the CSR invariants: RowPtr monotone from 0 to nnz, column
// ids within range and strictly increasing within each row, and consistent
// array lengths.
func (a *CSR[T]) Validate() error {
	if len(a.RowPtr) != a.NRows+1 {
		return fmt.Errorf("sparse: csr: len(RowPtr)=%d, want %d", len(a.RowPtr), a.NRows+1)
	}
	if len(a.ColIdx) != len(a.Val) {
		return fmt.Errorf("sparse: csr: %d column ids but %d values", len(a.ColIdx), len(a.Val))
	}
	if a.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: csr: RowPtr[0]=%d, want 0", a.RowPtr[0])
	}
	if a.RowPtr[a.NRows] != len(a.ColIdx) {
		return fmt.Errorf("sparse: csr: RowPtr[n]=%d, want nnz=%d", a.RowPtr[a.NRows], len(a.ColIdx))
	}
	for i := 0; i < a.NRows; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: csr: RowPtr not monotone at row %d", i)
		}
		cols, _ := a.Row(i)
		for k, j := range cols {
			if j < 0 || j >= a.NCols {
				return fmt.Errorf("sparse: csr: row %d: column %d out of range [0,%d)", i, j, a.NCols)
			}
			if k > 0 && cols[k-1] >= j {
				return fmt.Errorf("sparse: csr: row %d: columns not strictly increasing (%d >= %d)",
					i, cols[k-1], j)
			}
		}
	}
	return nil
}

// Transpose returns Aᵀ in CSR form (an O(nnz) counting transpose).
func (a *CSR[T]) Transpose() *CSR[T] {
	t := NewCSR[T](a.NCols, a.NRows)
	t.ColIdx = make([]int, len(a.ColIdx))
	t.Val = make([]T, len(a.Val))
	// Count entries per column of A = per row of T.
	for _, j := range a.ColIdx {
		t.RowPtr[j+1]++
	}
	for i := 0; i < t.NRows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int(nil), t.RowPtr[:t.NRows]...)
	for i := 0; i < a.NRows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			p := next[j]
			next[j]++
			t.ColIdx[p] = i
			t.Val[p] = vals[k]
		}
	}
	return t
}

// ExtractRow returns row i as a sparse vector of capacity NCols.
func (a *CSR[T]) ExtractRow(i int) *Vec[T] {
	cols, vals := a.Row(i)
	return &Vec[T]{
		N:   a.NCols,
		Ind: append([]int(nil), cols...),
		Val: append([]T(nil), vals...),
	}
}

// SubMatrix extracts the block with rows [r0, r1) and columns [c0, c1) as a
// new CSR matrix with local (shifted) indices. It is the primitive used to
// cut a global matrix into 2-D distributed blocks.
func (a *CSR[T]) SubMatrix(r0, r1, c0, c1 int) *CSR[T] {
	s := &CSR[T]{}
	a.SubMatrixInto(s, r0, r1, c0, c1)
	return s
}

// SubMatrixInto is SubMatrix writing into dst, reusing its arrays: a count
// pass sizes the row pointers and the entry arrays exactly, a fill pass
// copies each row's column window. Once dst has held a window this large,
// further extractions allocate nothing. dst must not alias a.
func (a *CSR[T]) SubMatrixInto(dst *CSR[T], r0, r1, c0, c1 int) {
	nr := r1 - r0
	dst.NRows, dst.NCols = nr, c1-c0
	dst.RowPtr = growInts(dst.RowPtr, nr+1)
	dst.RowPtr[0] = 0
	for i := 0; i < nr; i++ {
		cols, _ := a.Row(r0 + i)
		dst.RowPtr[i+1] = dst.RowPtr[i] + sort.SearchInts(cols, c1) - sort.SearchInts(cols, c0)
	}
	nnz := dst.RowPtr[nr]
	dst.ColIdx = growInts(dst.ColIdx, nnz)
	if cap(dst.Val) < nnz {
		dst.Val = make([]T, nnz)
	}
	dst.Val = dst.Val[:nnz]
	for i := 0; i < nr; i++ {
		lo, hi := dst.RowPtr[i], dst.RowPtr[i+1]
		if lo == hi {
			continue
		}
		cols, vals := a.Row(r0 + i)
		k := sort.SearchInts(cols, c0)
		for t := lo; t < hi; t, k = t+1, k+1 {
			dst.ColIdx[t] = cols[k] - c0
		}
		copy(dst.Val[lo:hi], vals[k-(hi-lo):k])
	}
}

// RowView points dst at rows [r0, r1) of a without copying any entry: only
// the rebased row pointers are written (into dst's reused RowPtr), while
// dst's ColIdx and Val alias a's storage, capacity-capped so an append on
// dst can never write into a. dst is read-only for as long as it aliases a;
// NNZ() is the window's entry count.
func (a *CSR[T]) RowView(dst *CSR[T], r0, r1 int) {
	nr := r1 - r0
	lo, hi := a.RowPtr[r0], a.RowPtr[r1]
	dst.NRows, dst.NCols = nr, a.NCols
	dst.RowPtr = growInts(dst.RowPtr, nr+1)
	for i := range dst.RowPtr {
		dst.RowPtr[i] = a.RowPtr[r0+i] - lo
	}
	dst.ColIdx = a.ColIdx[lo:hi:hi]
	dst.Val = a.Val[lo:hi:hi]
}

// String renders small matrices for debugging.
func (a *CSR[T]) String() string {
	if a.NNZ() > 32 {
		return fmt.Sprintf("CSR{%dx%d nnz=%d}", a.NRows, a.NCols, a.NNZ())
	}
	s := fmt.Sprintf("CSR{%dx%d", a.NRows, a.NCols)
	for i := 0; i < a.NRows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			s += fmt.Sprintf(" (%d,%d)=%v", i, j, vals[k])
		}
	}
	return s + "}"
}
