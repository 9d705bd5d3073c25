//! In-process `serve` endpoints on port-0 listeners.

use bittrans_engine::{proto, ServeOptions, Server, ServiceStats};
use std::io;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Duration;

/// Deadline of every benchmark exchange: generous, so only a hung server
/// ever hits it (and then the request counts as failed).
pub const TIMEOUT: Duration = Duration::from_secs(60);

/// One running server.
pub struct Endpoint {
    pub addr: String,
    handle: JoinHandle<io::Result<ServiceStats>>,
}

impl Endpoint {
    /// Binds a server with `workers` threads on `store` and starts serving.
    pub fn start(workers: usize, store: &Path) -> io::Result<Endpoint> {
        let server = Server::bind(&ServeOptions {
            workers: Some(workers),
            cache_dir: Some(store.to_path_buf()),
            ..ServeOptions::default()
        })?;
        let addr = server.local_addr().to_string();
        Ok(Endpoint { addr, handle: std::thread::spawn(move || server.run()) })
    }

    /// Asks the server to drain and waits until its thread has ended.
    pub fn stop(self) -> io::Result<()> {
        let mut client = proto::LineClient::connect(&self.addr, TIMEOUT)?;
        client.request("{\"shutdown\":true}")?;
        self.handle.join().map_err(|_| io::Error::other("server thread panicked"))?.map(|_| ())
    }
}
