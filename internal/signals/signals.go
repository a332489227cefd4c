// Package signals centralizes the graceful-shutdown contract the CLIs
// (lbbench, lbserved) share: the first SIGINT/SIGTERM cancels the
// returned context so in-flight work can drain — journals flush, shards
// are reaped, the daemon finishes its drain rounds — and immediately
// restores the default disposition, so a second signal terminates the
// process instead of being swallowed while it drains.
package signals

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// Graceful returns a context cancelled by the first SIGINT/SIGTERM (or by
// the returned CancelFunc). The signal handler un-installs itself the
// moment the context is done, so the second signal kills. Callers should
// `defer stop()` like any NotifyContext.
func Graceful(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}
