//! In-process server harness for the network suites: a fleet of real
//! [`Server`]s on port-0 loopback listeners sharing one cache directory,
//! plus fault endpoints that refuse, drop, garble, stall or lie — each a
//! deterministic stand-in for one way a network dispatch dies. No sleeps
//! anywhere: every scenario synchronizes on connection state (accept,
//! EOF) or on the client's own bounded timeout. Each test crate compiles
//! its own view of this module and uses its own subset, hence the blanket
//! allow.
#![allow(dead_code)]

use bittrans_engine::{ServeOptions, Server, ServiceStats};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;

/// A fleet of real servers, all warm engines over the same store — the
/// healthy endpoints remote-shard dispatches land on.
pub struct Fleet {
    /// `host:port` of each server, in start order.
    pub endpoints: Vec<String>,
    handles: Vec<JoinHandle<ServiceStats>>,
}

impl Fleet {
    /// Binds and runs `count` servers on free loopback ports, each with
    /// `workers` engine threads and `cache_dir` as its store.
    pub fn start(count: usize, cache_dir: &Path, workers: usize) -> Fleet {
        let mut endpoints = Vec::with_capacity(count);
        let mut handles = Vec::with_capacity(count);
        for _ in 0..count {
            let server = Server::bind(&ServeOptions {
                addr: "127.0.0.1:0".to_string(),
                workers: Some(workers),
                cache_dir: Some(cache_dir.to_path_buf()),
                ..ServeOptions::default()
            })
            .expect("bind loopback server");
            endpoints.push(server.local_addr().to_string());
            handles.push(std::thread::spawn(move || server.run().expect("server run")));
        }
        Fleet { endpoints, handles }
    }

    /// Sends every server a shutdown request and joins it, returning the
    /// per-server lifetime statistics in start order.
    pub fn shutdown(self) -> Vec<ServiceStats> {
        for endpoint in &self.endpoints {
            let mut stream = TcpStream::connect(endpoint).expect("connect for shutdown");
            stream.write_all(b"{\"shutdown\": true}\n").expect("send shutdown");
            let mut line = String::new();
            let _ = BufReader::new(stream).read_line(&mut line);
        }
        self.handles.into_iter().map(|handle| handle.join().expect("server thread")).collect()
    }
}

/// An address where nothing listens — dead on arrival: bound to resolve
/// a free port, then dropped before anyone can connect.
pub fn dead_endpoint() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind probe listener");
    let addr = listener.local_addr().expect("probe addr").to_string();
    drop(listener);
    addr
}

/// How a fault endpoint mistreats every connection after reading one
/// request line.
#[derive(Clone, Copy, Debug)]
pub enum Fault {
    /// Write half a plausible response — no newline — then close: the
    /// client sees a truncated line (connection dropped mid-response).
    DropMidResponse,
    /// Write a complete line that is not JSON.
    Garbage,
    /// Accept, read the request, and never write a byte: the client's
    /// read deadline must fire. The connection is held open until the
    /// client gives up and closes it (EOF), so the scenario needs no
    /// sleeps to stay deterministic.
    Stall,
    /// Answer a well-formed `ok` shard reply, echoing the request's
    /// coordinates with plausible stats, without computing anything: a
    /// reply the coordinator cannot tell from a real one.
    Lying,
}

/// Starts a listener that serves `fault` to every connection it ever
/// receives. The accept loop runs on a detached thread that dies with
/// the test process; the returned address is the only handle needed.
pub fn fault_endpoint(fault: Fault) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fault listener");
    let addr = listener.local_addr().expect("fault addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().expect("clone fault stream"));
                let mut request = String::new();
                let _ = reader.read_line(&mut request);
                match fault {
                    Fault::DropMidResponse => {
                        let _ = stream.write_all(b"{\"ok\":true,\"service\":{\"requests\":1");
                        let _ = stream.flush();
                        // Dropped here: the close lands before the newline.
                    }
                    Fault::Garbage => {
                        let _ = stream.write_all(b"%% not json at all %%\n");
                        let _ = stream.flush();
                    }
                    Fault::Stall => {
                        let mut sink = [0u8; 64];
                        while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
                    }
                    Fault::Lying => {
                        let coords = serde_json::from_str(&request)
                            .ok()
                            .and_then(|value| {
                                let coord = |key| value.get(key)?.as_u64();
                                Some((coord("shard_index")?, coord("shard_count")?))
                            })
                            .unwrap_or((0, 1));
                        let reply = format!(
                            "{{\"ok\":true,\"shard_index\":{},\"shard_count\":{},\
                             \"service\":{{\"requests\":1}},\"stats\":{{\"jobs\":4,\
                             \"cache_hits\":0,\"cache_misses\":4,\"hit_rate_pct\":0.0,\
                             \"cache_entries\":4,\"workers\":1,\"elapsed_ms\":12.5,\
                             \"stage_hits\":0,\"stage_misses\":36}}}}\n",
                            coords.0, coords.1
                        );
                        let _ = stream.write_all(reply.as_bytes());
                        let _ = stream.flush();
                    }
                }
            });
        }
    });
    addr
}
