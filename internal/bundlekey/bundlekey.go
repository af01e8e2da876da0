// Package bundlekey canonicalizes feature bundles into map keys. A bundle —
// a set of the data party's original-feature indices — is identified by its
// sorted members, so every layer that memoizes or dedups per-bundle state
// (the valuation oracle's gain cache, the catalog's dedup and lookup index,
// the synthetic gain memo) must agree on one canonical encoding. This
// package is that single point of agreement: sorted indices, comma-joined,
// built with strconv.AppendInt so keying a bundle costs at most its one
// string copy, and a map lookup of a sorted bundle through AppendKey
// costs none.
package bundlekey

import (
	"sort"
	"strconv"
)

// Key canonicalizes a feature set into a map key: the indices sorted
// ascending and comma-joined ("0,3,7"). The input is not modified.
func Key(features []int) string {
	var buf [64]byte
	return string(AppendKey(buf[:0], features))
}

// AppendKey appends features' canonical key (Key's encoding) to dst and
// returns the extended slice. The input is not modified. Looking up
// m[string(AppendKey(buf[:0], features))] with a stack buffer costs no
// allocation, since Go does not copy for a map index conversion.
func AppendKey(dst []byte, features []int) []byte {
	sorted := features
	if !sort.IntsAreSorted(sorted) {
		sorted = append([]int(nil), features...)
		sort.Ints(sorted)
	}
	for i, f := range sorted {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(f), 10)
	}
	return dst
}

// Fields canonicalizes a composite identity — e.g. the (dataset, seed,
// config) triple that keys a process-wide valuation oracle — by joining its
// parts with '|'. Parts should themselves be canonical (no '|'); the
// function is a single point of agreement on the separator, nothing more.
func Fields(parts ...string) string {
	n := 0
	for _, p := range parts {
		n += len(p) + 1
	}
	buf := make([]byte, 0, n)
	for i, p := range parts {
		if i > 0 {
			buf = append(buf, '|')
		}
		buf = append(buf, p...)
	}
	return string(buf)
}
