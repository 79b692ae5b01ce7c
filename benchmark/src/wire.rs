//! The benchmark's side of the wire: pre-encoded request frames and a
//! pipelining connection that blocks in `read` (it never polls or spins).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use mc_serve::protocol::{write_frame, FrameAssembler, Request, Response};

use crate::plan::Op;

/// Encodes `op` as one length-prefixed request frame.
pub fn frame_of(op: &Op) -> Vec<u8> {
    let request = match op {
        Op::Lookup(l) => Request::Lookup {
            query: l.text.clone(),
            context: l.context.clone(),
        },
        Op::Insert(i) => Request::Insert {
            query: i.text.clone(),
            response: i.response.clone(),
            context: i.context.clone(),
        },
        Op::Save => Request::Save,
    };
    let mut frame = Vec::new();
    write_frame(&mut frame, &request.encode()).expect("request fits a frame");
    frame
}

/// One client connection. Requests may be pipelined; replies come back in
/// request order.
pub struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            assembler: FrameAssembler::new(),
            buf: vec![0; 64 * 1024],
        })
    }

    /// A second handle on the same socket, for a dedicated sender thread.
    pub fn sender(&self) -> std::io::Result<TcpStream> {
        self.stream.try_clone()
    }

    /// Writes already-framed request bytes.
    pub fn send(&mut self, frames: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(frames)
    }

    /// Blocks until at least one reply has arrived, then appends every
    /// complete reply received so far to `replies`.
    pub fn recv(&mut self, replies: &mut Vec<Response>) -> std::io::Result<()> {
        let before = replies.len();
        while replies.len() == before {
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.assembler.extend(&self.buf[..n]);
            while let Some(payload) = self.assembler.next_frame().map_err(std::io::Error::other)? {
                replies.push(Response::decode(&payload).map_err(std::io::Error::other)?);
            }
        }
        Ok(())
    }

    /// Sends one request and waits for its reply (window 1).
    pub fn call(&mut self, frame: &[u8]) -> std::io::Result<Response> {
        self.send(frame)?;
        let mut replies = Vec::with_capacity(1);
        self.recv(&mut replies)?;
        Ok(replies.remove(0))
    }
}
