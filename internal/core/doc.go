// Package core implements the paper's primary contribution: the adaptive IO
// method (Section III, Algorithms 1–3).
//
// Writers are grouped contiguously by rank, one group per storage target.
// The first writer of each group additionally acts as the group's
// sub-coordinator (SC), owning one file placed on one OST and scheduling its
// writers onto that file one at a time. Rank 0 additionally acts as the
// coordinator (C) for the whole output. Writers and the coordinator talk
// only to sub-coordinators, never to each other, which bounds the message
// load on any single process.
//
// The adaptive mechanism: as sub-coordinators finish, their files (and thus
// their storage targets) become idle; the coordinator shifts queued writers
// from still-writing (slow) groups onto those idle (fast) targets, appending
// at the coordinator-tracked end offset, with at most one write active per
// file at any time. Work therefore drains from the slow areas of the file
// system into the fast ones — directly attacking the imbalance factor
// measured in Section II.
//
// Index handling follows the paper: each writer builds its local index
// entries from its assigned offset and ships them (separately from, and
// after, its data) to the *target* file's sub-coordinator; each SC sorts and
// merges its entries and writes a per-file local index; the coordinator
// gathers the local indices into a global index. (The paper notes the global
// indexing phase was the one unfinished piece, with a characteristics-based
// search as the interim; this implementation provides both — see
// bp.GlobalIndex.FindByValue.)
//
// # Message pumps
//
// The SC and C receive loops are the protocol's densest message paths —
// every write funnels a completion through an SC, and every adaptive
// redirect round-trips through C — so both run as run-to-completion
// continuation state machines (pump.go), spawned with Kernel.SpawnCont
// whichever engine carries the rank bodies. The SC machine's receive loop:
//
//	         ┌──────────────────────────────────────────────┐
//	         ▼                                              │
//	[0 wait start]──▶[1 loop head]──exit?──▶[3..6 index epilogue]──▶ done
//	                    │     ▲                             (pfs cont ops,
//	            signalNext    │                              LocalIndex → C)
//	                    │   put(env)
//	                    ▼     │
//	              RecvCont──▶[2 handle(env)]
//	               (parks; Send resumes it with the
//	                completed RecvOp — advance style)
//
// State 1 feeds the group's own target (pop the waiting ring, send a
// pooled go-signal envelope) and begins a receive; state 2 switches on the
// envelope kind (write/index/failure/adaptive traffic), recycles the
// envelope into the pool, and loops. The C machine has the same shape with
// a dispatch/rotation head and a gather + global-index epilogue.
//
// Wire messages are pooled *scMsg envelopes: pointer-shaped, so sending one
// through mpisim's `any` payload never boxes, and each in-flight message
// owns its envelope (fan-out sends two), with the receiver returning it to
// the pool after handling; put zeroes an envelope, so the free list holds
// no index slices. The pool belongs to the step's state and is recycled
// with it through the world's step arena (adaptive.go). Steady-state
// SC/writer exchange is allocation-free (TestSCPumpZeroAlloc).
//
// Delivery order: rank messages travel through mpisim's latency-stamped
// delivery events in (time, seq) order — a parked receiver is woken by a
// scheduled event whether it is a continuation or a goroutine awaiting the
// step machine, so both observe the same message interleavings. The inline
// direct-delivery fast path exists one layer down, in simkernel.Mailbox,
// where both the send and the resume happen at the same timestamp within
// one event.
package core
