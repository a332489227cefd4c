package orchestrator

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// shellQuote quotes s for POSIX sh when it needs it (grid flag values are
// alphanumeric lists, so mostly it does not — the quoting is for paths).
// The ssh and Slurm launchers both hand lbbench argv to a remote shell.
func shellQuote(s string) string {
	if s != "" && !strings.ContainsAny(s, " \t\n'\"\\$&|;<>()*?[]#~`{}!") {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", "'\\''") + "'"
}

func shellJoin(args []string) string {
	quoted := make([]string, len(args))
	for i, a := range args {
		quoted[i] = shellQuote(a)
	}
	return strings.Join(quoted, " ")
}

// SSHLauncher runs attempts on a remote host over ssh. The remote lbbench
// journals at the same path the plan laid out locally (the layout is the
// contract: both sides use the plan's Dir verbatim), and FetchJournal
// mirrors those bytes home with a cat over the same transport — the
// supervisor's journal tail then drives progress, stalls and steals exactly
// as it does for a local shard.
//
// The remote side needs only lbbench on PATH (or Remote pointing at it) and
// a POSIX sh; no agent or daemon. Attempts record their remote pid in
// <journal>.pid so Signal can reach the process even though the local
// handle is just the ssh client.
type SSHLauncher struct {
	// Host is the ssh destination (host, user@host, or an ssh_config
	// alias). Required.
	Host string
	// SSH is the client argv prefix; empty means
	// {"ssh", "-o", "BatchMode=yes"}. Tests substitute a stub here.
	SSH []string
	// Remote is the remote lbbench invocation; empty means "lbbench".
	Remote string
	// RemoteDir relocates the remote side's journals: attempts journal
	// under this directory (same basename) on the host instead of the
	// plan's local path. Empty keeps the plan layout — the usual remote
	// setup. Set it whenever the host shares a filesystem with the
	// supervisor (ssh-to-localhost smokes, NFS homes): fetching a journal
	// over the very path the remote attempt is appending to would replace
	// the writer's inode and freeze its visible progress.
	RemoteDir string
	// Width caps concurrent attempts on this host; <= 0 means 1 — remote
	// slots are the scarce resource stealing exists to fill, so they
	// default conservative.
	Width int
}

// remoteJournal is where t's journal lives on the remote side.
func (l *SSHLauncher) remoteJournal(t *Task) string {
	if l.RemoteDir == "" {
		return t.Journal
	}
	return filepath.Join(l.RemoteDir, filepath.Base(t.Journal))
}

func (l *SSHLauncher) ssh() []string {
	if len(l.SSH) > 0 {
		return l.SSH
	}
	return []string{"ssh", "-o", "BatchMode=yes"}
}

func (l *SSHLauncher) remote() string {
	if l.Remote != "" {
		return l.Remote
	}
	return "lbbench"
}

// Name implements Launcher.
func (l *SSHLauncher) Name() string { return "ssh:" + l.Host }

// Slots implements Launcher.
func (l *SSHLauncher) Slots() int {
	if l.Width <= 0 {
		return 1
	}
	return l.Width
}

// sshHandle ties the local ssh client to the task whose remote pid file
// Signal must consult.
type sshHandle struct {
	cmd *exec.Cmd
	t   *Task
}

// run executes one ssh command synchronously, discarding output.
func (l *SSHLauncher) run(command string) error {
	argv := append(append([]string(nil), l.ssh()...), l.Host, command)
	cmd := exec.Command(argv[0], argv[1:]...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("orchestrator: ssh %s: %v: %s", l.Host, err, out)
	}
	return nil
}

// Launch implements Launcher: the remote command records its pid, then
// exec-replaces the shell with lbbench so that pid stays accurate for the
// attempt's whole life. The local ssh client's stderr carries the remote
// stderr home into the task's .stderr file.
func (l *SSHLauncher) Launch(ctx context.Context, t *Task, args []string) (Handle, error) {
	if l.Host == "" {
		return nil, fmt.Errorf("orchestrator: ssh launcher has no host")
	}
	rj := l.remoteJournal(t)
	if rj != t.Journal {
		// The journal path rides the args as standalone -out/-resume
		// operands; relocate every exact occurrence.
		args = append([]string(nil), args...)
		for i, a := range args {
			if a == t.Journal {
				args[i] = rj
			}
		}
	}
	remote := fmt.Sprintf("mkdir -p %s && { echo $$ > %s; exec %s %s; }",
		shellQuote(filepath.Dir(rj)), shellQuote(rj+".pid"),
		l.remote(), shellJoin(args))
	argv := append(append([]string(nil), l.ssh()...), l.Host, remote)
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stdout = nil
	// Context cancellation interrupts the local client; ssh forwards the
	// hangup and the remote lbbench takes its graceful SIGHUP/EOF path. The
	// WaitDelay backstop still reaps a wedged client.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGINT) }
	cmd.WaitDelay = 30 * time.Second
	stderr, err := os.OpenFile(stderrPath(t), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("orchestrator: %w", err)
	}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		stderr.Close()
		return nil, fmt.Errorf("orchestrator: %w", err)
	}
	stderr.Close()
	return &sshHandle{cmd: cmd, t: t}, nil
}

// Signal implements Launcher: the signal is delivered on the remote side,
// to the pid the attempt recorded — the local ssh client would only relay
// some signals, and none to a remote process that is stopped. A kill also
// reaps the local client so Wait returns promptly instead of waiting out
// the dead connection.
func (l *SSHLauncher) Signal(h Handle, sig os.Signal) error {
	sh := h.(*sshHandle)
	num, ok := sig.(syscall.Signal)
	if !ok {
		return fmt.Errorf("orchestrator: ssh launcher cannot deliver %v", sig)
	}
	err := l.run(fmt.Sprintf("kill -%d \"$(cat %s)\"", int(num), shellQuote(l.remoteJournal(sh.t)+".pid")))
	if num == syscall.SIGKILL && sh.cmd.Process != nil {
		sh.cmd.Process.Kill()
	}
	return err
}

// Wait implements Launcher.
func (l *SSHLauncher) Wait(h Handle) error { return h.(*sshHandle).cmd.Wait() }

// FetchJournal implements Launcher: cat the remote journal and rename the
// bytes into place. The remote file may be mid-append — the fetched copy is
// then a prefix with a torn tail, which every journal scanner tolerates and
// the next fetch extends. A missing remote file (attempt not started yet)
// leaves any local copy alone.
func (l *SSHLauncher) FetchJournal(t *Task) error {
	rj := l.remoteJournal(t)
	argv := append(append([]string(nil), l.ssh()...), l.Host,
		fmt.Sprintf("test -f %s && cat %s || true", shellQuote(rj), shellQuote(rj)))
	cmd := exec.Command(argv[0], argv[1:]...)
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("orchestrator: fetch %s from %s: %w", t.Journal, l.Host, err)
	}
	if len(out) == 0 {
		return nil
	}
	tmp := t.Journal + ".fetch"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return fmt.Errorf("orchestrator: %w", err)
	}
	if err := os.Rename(tmp, t.Journal); err != nil {
		return fmt.Errorf("orchestrator: %w", err)
	}
	return nil
}
