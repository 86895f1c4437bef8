//! Minimal TCP loopback handshake carrying the Certificate message.
//!
//! Not a TLS implementation — a transport harness that moves a real
//! RFC 5246 Certificate handshake message over a real socket so the
//! examples exercise the full serve → frame → parse → chain-build path.
//! Blocking `std::net` is used deliberately: a single request/response
//! exchange gains nothing from an async runtime.

use crate::tlsmsg::{self, TlsMsgError};
use ccc_x509::Certificate;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;

/// Handshake transport errors.
#[derive(Debug)]
pub enum HandshakeError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer sent a malformed Certificate message.
    Framing(TlsMsgError),
    /// One or more individual connections failed while the server kept
    /// serving the rest; each entry is `(connection index, error)`.
    Connections(Vec<(usize, HandshakeError)>),
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::Io(e) => write!(f, "handshake I/O error: {e}"),
            HandshakeError::Framing(e) => write!(f, "handshake framing error: {e}"),
            HandshakeError::Connections(errs) => {
                write!(f, "{} connection(s) failed:", errs.len())?;
                for (idx, e) in errs {
                    write!(f, " [#{idx}: {e}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for HandshakeError {}

impl From<std::io::Error> for HandshakeError {
    fn from(e: std::io::Error) -> Self {
        HandshakeError::Io(e)
    }
}

impl From<TlsMsgError> for HandshakeError {
    fn from(e: TlsMsgError) -> Self {
        HandshakeError::Framing(e)
    }
}

/// A one-shot certificate server bound to an ephemeral loopback port.
#[derive(Debug)]
pub struct CertServer {
    addr: SocketAddr,
    handle: Option<JoinHandle<Result<(), HandshakeError>>>,
}

impl CertServer {
    /// Spawn a server that serves `certs` to exactly `connections`
    /// clients, then exits.
    ///
    /// A connection that errors mid-exchange (client hangs up, write
    /// fails) does not abort the remaining connections: the error is
    /// recorded against that connection's index and the listener keeps
    /// accepting. [`join`](Self::join) surfaces all recorded failures as
    /// [`HandshakeError::Connections`].
    pub fn spawn(
        certs: Vec<Certificate>,
        connections: usize,
    ) -> Result<CertServer, HandshakeError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let msg = tlsmsg::encode_tls12(&certs)?;
        let handle = std::thread::spawn(move || -> Result<(), HandshakeError> {
            let mut failures: Vec<(usize, HandshakeError)> = Vec::new();
            for index in 0..connections {
                let served = (|| -> Result<(), HandshakeError> {
                    let (mut stream, _) = listener.accept()?;
                    stream.write_all(&msg)?;
                    stream.flush()?;
                    // Closing the stream signals end-of-message.
                    Ok(())
                })();
                if let Err(e) = served {
                    failures.push((index, e));
                }
            }
            if failures.is_empty() {
                Ok(())
            } else {
                Err(HandshakeError::Connections(failures))
            }
        });
        Ok(CertServer {
            addr,
            handle: Some(handle),
        })
    }

    /// Address to connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the server thread to finish serving.
    pub fn join(mut self) -> Result<(), HandshakeError> {
        match self.handle.take() {
            Some(h) => h.join().expect("server thread panicked"),
            None => Ok(()),
        }
    }
}

/// Connect to a certificate server and retrieve the served certificate
/// list in wire order.
pub fn fetch_certificate_list(addr: SocketAddr) -> Result<Vec<Certificate>, HandshakeError> {
    let mut stream = TcpStream::connect(addr)?;
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf)?;
    Ok(tlsmsg::decode_tls12(&buf)?)
}

/// Convenience: serve `certs` once over a real loopback socket and return
/// what a client receives.
pub fn loopback_roundtrip(certs: &[Certificate]) -> Result<Vec<Certificate>, HandshakeError> {
    let server = CertServer::spawn(certs.to_vec(), 1)?;
    let received = fetch_certificate_list(server.addr())?;
    server.join()?;
    Ok(received)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_crypto::{Group, KeyPair};
    use ccc_x509::{CertificateBuilder, DistinguishedName};

    fn chain() -> Vec<Certificate> {
        let g = Group::simulation_256();
        let ca_kp = KeyPair::from_seed(g, b"hsk-ca");
        let leaf_kp = KeyPair::from_seed(g, b"hsk-leaf");
        let ca_dn = DistinguishedName::cn("Handshake CA");
        let ca = CertificateBuilder::ca_profile(ca_dn.clone()).self_signed(&ca_kp);
        let leaf = CertificateBuilder::leaf_profile("handshake.sim").issued_by(
            &leaf_kp.public,
            ca_dn,
            &ca_kp,
        );
        vec![leaf, ca]
    }

    #[test]
    fn loopback_preserves_wire_order() {
        let certs = chain();
        let received = loopback_roundtrip(&certs).unwrap();
        assert_eq!(received, certs);

        let mut reversed = certs;
        reversed.reverse();
        let received = loopback_roundtrip(&reversed).unwrap();
        assert_eq!(received, reversed);
    }

    #[test]
    fn multiple_clients_served() {
        let certs = chain();
        let server = CertServer::spawn(certs.clone(), 3).unwrap();
        for _ in 0..3 {
            let received = fetch_certificate_list(server.addr()).unwrap();
            assert_eq!(received, certs);
        }
        server.join().unwrap();
    }

    #[test]
    fn empty_chain_roundtrips() {
        let received = loopback_roundtrip(&[]).unwrap();
        assert!(received.is_empty());
    }

    #[test]
    fn connection_error_does_not_abort_remaining_clients() {
        // A message far larger than any socket buffer, so writing to a
        // client that hung up reliably fails mid-exchange (RST → EPIPE /
        // ECONNRESET) instead of being absorbed by the kernel.
        let pair = chain();
        let certs: Vec<Certificate> = std::iter::repeat(pair).take(8_000).flatten().collect();
        let server = CertServer::spawn(certs.clone(), 2).unwrap();

        // Connection 0: connect and hang up without reading anything.
        drop(TcpStream::connect(server.addr()).unwrap());

        // Connection 1 must still be served in full despite the failure.
        let received = fetch_certificate_list(server.addr()).unwrap();
        assert_eq!(received.len(), certs.len());
        assert_eq!(received, certs);

        // join surfaces exactly the one failed connection, by index.
        match server.join() {
            Err(HandshakeError::Connections(errs)) => {
                assert_eq!(errs.len(), 1, "{errs:?}");
                assert_eq!(errs[0].0, 0);
                assert!(matches!(errs[0].1, HandshakeError::Io(_)));
            }
            other => panic!("expected per-connection error report, got {other:?}"),
        }
    }
}
