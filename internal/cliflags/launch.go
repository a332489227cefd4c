package cliflags

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/orchestrator"
)

// Launch holds the shared orchestration flag values: which execution
// backend runs the shards and how the supervisor restarts, warns and
// steals: the -launcher/-hosts/-steal-after surface of lbbench -spawn.
type Launch struct {
	Launcher   string
	Hosts      string
	RemoteCmd  string
	RemoteDir  string
	Retries    int
	Progress   time.Duration
	StealAfter time.Duration
}

// RegisterLaunch registers the orchestration flags on fs.
func RegisterLaunch(fs *flag.FlagSet) *Launch {
	l := &Launch{}
	fs.StringVar(&l.Launcher, "launcher", "local", "orchestrator: execution backend for shard attempts (local, ssh)")
	fs.StringVar(&l.Hosts, "hosts", "", "orchestrator: comma-separated ssh destinations for -launcher ssh (host, user@host, or ssh_config aliases; one shard slot each)")
	fs.StringVar(&l.RemoteCmd, "remote-cmd", "", "orchestrator: lbbench invocation on the remote side for -launcher ssh (default: lbbench on the remote PATH)")
	fs.StringVar(&l.RemoteDir, "remote-dir", "", "orchestrator: with -launcher ssh, journal under this directory on the remote host instead of the plan's local layout (required when the host shares a filesystem with the supervisor, e.g. ssh to localhost)")
	fs.IntVar(&l.Retries, "retries", 3, "orchestrator: max restarts per dead shard before giving up (or stealing, with -steal-after)")
	fs.DurationVar(&l.Progress, "progress", time.Second, "orchestrator: journal poll period for the progress display")
	fs.DurationVar(&l.StealAfter, "steal-after", 0, "orchestrator: kill a shard whose journal is unchanged this long and reassign its remaining units to idle launchers (0 disables work stealing)")
	return l
}

// Policy is the supervisor policy the parsed flags describe.
func (l *Launch) Policy() orchestrator.Policy {
	return orchestrator.Policy{
		MaxRetries: l.Retries,
		Interval:   l.Progress,
		StealAfter: l.StealAfter,
	}
}

// Launchers builds the launcher fleet the flags describe. The local
// backend spawns the running binary itself, so a -spawn parent and its
// shard children are always the same lbbench.
func (l *Launch) Launchers() ([]orchestrator.Launcher, error) {
	switch l.Launcher {
	case "", "local":
		if l.Hosts != "" {
			return nil, fmt.Errorf("-hosts needs -launcher ssh")
		}
		if l.RemoteDir != "" {
			return nil, fmt.Errorf("-remote-dir needs -launcher ssh")
		}
		self, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("cannot locate own binary to spawn shards: %v", err)
		}
		return []orchestrator.Launcher{&orchestrator.LocalLauncher{Command: []string{self}}}, nil
	case "ssh":
		hosts := SplitList(l.Hosts)
		if len(hosts) == 0 {
			return nil, fmt.Errorf("-launcher ssh needs -hosts host1,host2,...")
		}
		out := make([]orchestrator.Launcher, len(hosts))
		for i, h := range hosts {
			out[i] = &orchestrator.SSHLauncher{Host: h, Remote: l.RemoteCmd, RemoteDir: l.RemoteDir}
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown -launcher %q (want local or ssh)", l.Launcher)
}
