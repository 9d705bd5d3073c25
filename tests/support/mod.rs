//! Shared process harness for the CLI integration suites: locating the
//! compiled `bittrans` binary, running it, and driving a real `serve`
//! process over a loopback port. Each test crate compiles its own view
//! of this module and uses its own subset, hence the blanket allow.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// The `bittrans` binary built alongside the test executable.
pub fn bin() -> PathBuf {
    let mut p = std::env::current_exe().expect("test exe path");
    p.pop(); // deps/
    p.pop(); // debug|release/
    p.push(format!("bittrans{}", std::env::consts::EXE_SUFFIX));
    p
}

/// A path relative to the repository root.
pub fn repo(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path)
}

/// Runs the binary with extra environment variables; returns
/// `(success, stdout, stderr)`.
pub fn run_env(args: &[&str], env: &[(&str, &str)]) -> (bool, String, String) {
    let mut cmd = Command::new(bin());
    cmd.args(args);
    for (key, value) in env {
        cmd.env(key, value);
    }
    let out = cmd.output().expect("bittrans binary runs (build it with the test profile)");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Runs the binary with the ambient environment.
pub fn run(args: &[&str]) -> (bool, String, String) {
    run_env(args, &[])
}

/// A running `bittrans serve` process over a store, killed on drop so a
/// failing assert never leaks a listener.
pub struct ServerProc {
    child: Child,
    /// The `host:port` the server announced (port 0 resolved).
    pub addr: String,
}

impl ServerProc {
    /// Spawns `serve --addr 127.0.0.1:0 --cache-dir … --jobs …` and reads
    /// the resolved address off the banner line.
    pub fn start(cache_dir: &Path, jobs: usize) -> ServerProc {
        let jobs = jobs.to_string();
        let mut child = Command::new(bin())
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--cache-dir",
                cache_dir.to_str().unwrap(),
                "--jobs",
                &jobs,
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve spawns");
        // The first stdout line announces the resolved port.
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("serve announces its address");
        let addr = bittrans::engine::serve::parse_banner(&line)
            .unwrap_or_else(|| panic!("unexpected serve banner: {line}"))
            .to_string();
        ServerProc { child, addr }
    }

    /// Runs `bittrans client` against this server.
    pub fn client(&self, extra: &[&str]) -> (bool, String, String) {
        let mut args = vec!["client"];
        args.extend_from_slice(extra);
        args.extend_from_slice(&["--addr", &self.addr]);
        run(&args)
    }

    /// Asks the server to drain and exit, then reaps it.
    pub fn shutdown(mut self) {
        let (ok, stdout, stderr) = self.client(&["--shutdown"]);
        assert!(ok, "shutdown failed: {stderr}");
        assert!(stdout.contains("acknowledged"), "{stdout}");
        let status = self.child.wait().expect("serve exits");
        assert!(status.success(), "serve exited with {status}");
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
