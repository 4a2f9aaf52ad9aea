package decode

import "repro/internal/shop"

// FlowShop decodes a job permutation into the semi-active permutation flow
// shop schedule via the classic completion-time recurrence
//
//	C(perm[0..i], m) = max(C(perm[0..i-1], m), C(perm[0..i], m-1)) + p(i, m)
//
// honouring job release dates on the first machine. It is FlowShopInto on a
// fresh Scratch, so the caller owns the schedule.
func FlowShop(in *shop.Instance, perm []int) *shop.Schedule {
	return FlowShopInto(in, perm, nil)
}
