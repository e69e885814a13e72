// Package goodspan holds span lifecycles releasecheck must accept:
// deferred and per-branch Ends, the Finish spelling, escapes that move
// ownership, and the borrowed/pre-ended handles that birth no
// obligation at all.
package goodspan

import (
	"context"
	"time"

	"goodspan/trace"
)

func work() error { return nil }

// deferEnd is the canonical request shape: End deferred at the birth
// site, attributes set along the way.
func deferEnd(tr *trace.Tracer, ctx context.Context) error {
	ctx, sp := tr.Start(ctx, "request")
	defer sp.End()
	sp.SetAttr("tenant", "acme")
	_ = ctx
	return work()
}

// perBranchEnd ends explicitly on every path, with an error recorded on
// the failure branch first.
func perBranchEnd(tr *trace.Tracer) error {
	sp := tr.StartRoot("flush")
	if err := work(); err != nil {
		sp.SetError(err)
		sp.End()
		return err
	}
	sp.End()
	return nil
}

// finishSpelling: Finish is an accepted alias for End.
func finishSpelling(tr *trace.Tracer) {
	sp := tr.StartRoot("checkpoint")
	sp.Finish()
}

// deferredClosure ends the span inside a deferred cleanup closure — the
// serving stack's finalizer idiom.
func deferredClosure(tr *trace.Tracer, ctx context.Context) error {
	_, sp := tr.StartRemote(ctx, "request", "00-aa-bb-01")
	defer func() {
		sp.SetAttr("status", "200")
		sp.End()
	}()
	return work()
}

// escapes move the End to the receiver: as an argument, a return value,
// and a struct store.
func escapeArg(tr *trace.Tracer, ctx context.Context) context.Context {
	sp := tr.StartRoot("detached")
	return trace.WithSpan(ctx, sp)
}

func escapeReturn(tr *trace.Tracer) *trace.Span {
	sp := tr.StartRoot("handle")
	return sp
}

type holder struct{ sp *trace.Span }

func escapeStore(tr *trace.Tracer) *holder {
	sp := tr.StartRoot("held")
	return &holder{sp: sp}
}

// borrowed spans from FromContext are owned by the request that made
// them; reading and annotating one births no obligation.
func borrowed(ctx context.Context) {
	sp := trace.FromContext(ctx)
	sp.SetAttr("phase", "encode")
}

// preEnded handles from AddCompleted arrive already closed; dropping
// one is fine.
func preEnded(tr *trace.Tracer) {
	sp := tr.StartRoot("batch")
	defer sp.End()
	done := sp.AddCompleted("batch.intern")
	_ = done
}

// childPassed hands the child to a helper, which owns its End; the root
// keeps its deferred one. A ticker rides along to prove the kinds stay
// independent.
func childPassed(tr *trace.Tracer) {
	sp := tr.StartRoot("query")
	defer sp.End()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	annotate(sp.Child("query.stage"))
	<-t.C
}

func annotate(sp *trace.Span) {
	sp.SetAttr("rows", "3")
	sp.End()
}
