// Package simkernel is the contblock fixture's mirror of the kernel
// surface: the fixture loads under the real simkernel import path so the
// analyzer's package-keyed blocklist and *ContProc/*Proc signature rules
// engage exactly as they do in-tree.
package simkernel

import "time"

type Time int64

type Proc struct{ id int }

func (p *Proc) Sleep(d time.Duration)  {}
func (p *Proc) SleepSeconds(s float64) {}
func (p *Proc) Suspend()               {}

func (p *Proc) Await(step func(*ContProc) bool) {}

type ContProc Proc

func (c *ContProc) Proc() *Proc             { return (*Proc)(c) }
func (c *ContProc) Sleep(d time.Duration)   {}
func (c *ContProc) SleepUntil(at Time) bool { return true }

type RecvOp struct{ v any }

func (o *RecvOp) Msg() any { return o.v }

// WriteOp is a client op in flight, driven by Step (and by Proc.Await on a
// goroutine).
type WriteOp struct{ pc int }

func (o *WriteOp) Step(c *ContProc) bool { return true }

type Mailbox struct{ q []any }

func (m *Mailbox) Send(v any)                           { m.q = append(m.q, v) }
func (m *Mailbox) Recv(p *Proc) any                     { return nil }
func (m *Mailbox) TryRecv() (any, bool)                 { return nil, false }
func (m *Mailbox) RecvCont(o *RecvOp, c *ContProc) bool { return false }

type Resource struct{ cap int }

func (r *Resource) Acquire(p *Proc)              {}
func (r *Resource) Release()                     {}
func (r *Resource) AcquireCont(c *ContProc) bool { return true }

type Kernel struct{ now Time }

func (k *Kernel) Run() Time                                       { return k.now }
func (k *Kernel) RunUntil(deadline Time) Time                     { return k.now }
func (k *Kernel) Spawn(name string, fn func(p *Proc))             {}
func (k *Kernel) SpawnAt(at Time, name string, fn func(p *Proc))  {}
func (k *Kernel) SpawnJob(name string, job int, fn func(p *Proc)) {}
func (k *Kernel) SpawnCont(name string, body Cont)                {}
func (k *Kernel) SpawnJoin(name string, wg *WaitGroup, fn func()) {}

// Cont is a continuation body.
type Cont interface{ Step(c *ContProc) bool }

type WaitGroup struct{ n int }
