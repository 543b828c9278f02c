//! Model checkpointing: a compact, self-describing, checksummed binary
//! format with atomic on-disk writes.
//!
//! A pruned model is only useful if it can leave the process that pruned
//! it — and a crash-resumable pipeline is only as trustworthy as the
//! checkpoints it resumes from. This module serializes a [`Network`] —
//! including physically shrunk layers, batch-norm running statistics and
//! residual-block active flags — to a versioned little-endian byte
//! stream, restores it bit-exactly, and detects corruption (bit flips,
//! truncation, partial writes) as typed `InvalidData` errors instead of
//! garbage weights.
//!
//! The format is deliberately independent of any serialization crate.
//! Version 2 (written by this code) is:
//!
//! ```text
//! magic "HSCK" · version u32 · node count u64 · nodes… · file CRC32
//! ```
//!
//! where every tensor is `rank u32 · dims u64… · f32 data · CRC32` (the
//! per-tensor CRC covers that tensor's rank, dims and data bytes) and
//! the trailing file CRC covers every byte before it, per-tensor CRCs
//! included. Version 1 — the same layout minus all checksums — is still
//! read transparently, so pre-existing checkpoints keep loading.
//!
//! On-disk writes via [`save`] are atomic (tmp + fsync + rename through
//! `hs_telemetry::io::atomic_write_as`), so a crash mid-save can never
//! leave a torn checkpoint at the final path.
//!
//! # Example
//!
//! ```
//! use hs_nn::{checkpoint, models};
//! use hs_tensor::Rng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = Rng::seed_from(0);
//! let net = models::vgg11(3, 4, 8, 0.25, &mut rng)?;
//! let bytes = checkpoint::to_bytes(&net)?;
//! let restored = checkpoint::from_bytes(&bytes)?;
//! assert_eq!(restored.len(), net.len());
//! # Ok(())
//! # }
//! ```

use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

use hs_tensor::{Shape, Tensor};

use crate::block::ResidualBlock;
use crate::layer::{
    AvgPool2d, BatchNorm2d, Conv2d, Dropout, Flatten, GlobalAvgPool, Linear, MaxPool2d, ReLU,
};
use crate::network::{Network, Node};

const MAGIC: &[u8; 4] = b"HSCK";
/// Format version written by [`write_network`].
const VERSION: u32 = 2;
/// Oldest format version [`read_network`] still accepts.
const MIN_VERSION: u32 = 1;

/// Sanity bounds enforced before any allocation sized by stream data, so
/// a corrupt length field yields `InvalidData` instead of an OOM abort.
const MAX_NODES: u64 = 1 << 20;
const MAX_RANK: u32 = 8;
const MAX_DIM: u64 = 1 << 24;
const MAX_ELEMENTS: usize = 1 << 28;
/// Smallest step, in floats (256 KiB), by which a tensor read grows its
/// buffer.
const READ_CHUNK: usize = 1 << 16;

fn bad(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, polynomial 0xEDB88320), table-driven.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// Incremental CRC32 (IEEE) hasher used for checkpoint checksums.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far (the hasher stays usable).
    pub fn value(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.value()
}

// ---------------------------------------------------------------------------
// Checksumming IO wrappers. The file CRC accumulates every byte that
// crosses the wrapper; a tensor CRC can be layered on top for the span
// of one tensor's rank/dims/data bytes.

struct CheckWriter<W: Write> {
    inner: W,
    checksummed: bool,
    file: Crc32,
    tensor: Option<Crc32>,
}

impl<W: Write> CheckWriter<W> {
    fn new(inner: W, checksummed: bool) -> CheckWriter<W> {
        CheckWriter {
            inner,
            checksummed,
            file: Crc32::new(),
            tensor: None,
        }
    }

    fn begin_tensor(&mut self) {
        if self.checksummed {
            self.tensor = Some(Crc32::new());
        }
    }

    fn end_tensor(&mut self) -> Option<u32> {
        self.tensor.take().map(|crc| crc.value())
    }

    fn file_crc(&self) -> u32 {
        self.file.value()
    }
}

impl<W: Write> Write for CheckWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        if self.checksummed {
            self.file.update(&buf[..n]);
            if let Some(tensor) = &mut self.tensor {
                tensor.update(&buf[..n]);
            }
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

struct CheckReader<R: Read> {
    inner: R,
    checksummed: bool,
    file: Crc32,
    tensor: Option<Crc32>,
}

impl<R: Read> CheckReader<R> {
    fn new(inner: R) -> CheckReader<R> {
        CheckReader {
            inner,
            checksummed: true,
            file: Crc32::new(),
            tensor: None,
        }
    }

    fn begin_tensor(&mut self) {
        if self.checksummed {
            self.tensor = Some(Crc32::new());
        }
    }

    fn end_tensor(&mut self) -> Option<u32> {
        self.tensor.take().map(|crc| crc.value())
    }

    fn file_crc(&self) -> u32 {
        self.file.value()
    }
}

impl<R: Read> Read for CheckReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if self.checksummed {
            self.file.update(&buf[..n]);
            if let Some(tensor) = &mut self.tensor {
                tensor.update(&buf[..n]);
            }
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Primitive field IO.

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn write_tensor<W: Write>(w: &mut CheckWriter<W>, t: &Tensor) -> io::Result<()> {
    w.begin_tensor();
    let dims = t.shape().dims();
    write_u32(w, dims.len() as u32)?;
    for &d in dims {
        write_u64(w, d as u64)?;
    }
    for &v in t.data() {
        w.write_all(&v.to_le_bytes())?;
    }
    if let Some(crc) = w.end_tensor() {
        write_u32(w, crc)?;
    }
    Ok(())
}

fn read_tensor<R: Read>(r: &mut CheckReader<R>) -> io::Result<Tensor> {
    r.begin_tensor();
    let rank = read_u32(r)?;
    if rank > MAX_RANK {
        return Err(bad(format!("implausible tensor rank {rank}")));
    }
    let mut dims = Vec::with_capacity(rank as usize);
    let mut len = 1usize;
    for _ in 0..rank {
        let d = read_u64(r)?;
        if d > MAX_DIM {
            return Err(bad(format!("implausible tensor dimension {d}")));
        }
        len = len
            .checked_mul(d as usize)
            .filter(|&l| l <= MAX_ELEMENTS)
            .ok_or_else(|| bad(format!("implausible tensor size (dims {dims:?} x {d})")))?;
        dims.push(d as usize);
    }
    // The header only claims `len` floats: grow the buffer as they
    // arrive (geometrically, never past `len`), so a stream that ends
    // early fails at EOF having allocated no more than its bytes justify.
    let mut data = Vec::new();
    let mut buf = [0u8; 4];
    while data.len() < len {
        if data.len() == data.capacity() {
            data.reserve_exact(data.len().max(READ_CHUNK).min(len - data.len()));
        }
        r.read_exact(&mut buf)?;
        data.push(f32::from_le_bytes(buf));
    }
    if let Some(computed) = r.end_tensor() {
        let stored = read_u32(r)?;
        if stored != computed {
            return Err(bad(format!(
                "tensor checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
    }
    Tensor::from_vec(Shape::new(dims), data).map_err(|e| bad(e.to_string()))
}

fn write_conv<W: Write>(w: &mut CheckWriter<W>, conv: &Conv2d) -> io::Result<()> {
    write_tensor(w, &conv.weight.value)?;
    write_tensor(w, &conv.bias.value)?;
    write_u32(w, conv.stride() as u32)?;
    write_u32(w, conv.padding() as u32)
}

fn read_conv<R: Read>(r: &mut CheckReader<R>) -> io::Result<Conv2d> {
    let weight = read_tensor(r)?;
    let bias = read_tensor(r)?;
    let stride = read_u32(r)? as usize;
    let padding = read_u32(r)? as usize;
    Conv2d::from_parts(weight, bias, stride, padding).map_err(|e| bad(e.to_string()))
}

fn write_bn<W: Write>(w: &mut CheckWriter<W>, bn: &BatchNorm2d) -> io::Result<()> {
    write_tensor(w, &bn.gamma.value)?;
    write_tensor(w, &bn.beta.value)?;
    write_tensor(w, &bn.running_mean)?;
    write_tensor(w, &bn.running_var)
}

fn read_bn<R: Read>(r: &mut CheckReader<R>) -> io::Result<BatchNorm2d> {
    let gamma = read_tensor(r)?;
    let beta = read_tensor(r)?;
    let mean = read_tensor(r)?;
    let var = read_tensor(r)?;
    BatchNorm2d::from_parts(gamma, beta, mean, var).map_err(|e| bad(e.to_string()))
}

fn write_node<W: Write>(w: &mut CheckWriter<W>, node: &Node) -> io::Result<()> {
    match node {
        Node::Conv(conv) => {
            w.write_all(&[0])?;
            write_conv(w, conv)
        }
        Node::Bn(bn) => {
            w.write_all(&[1])?;
            write_bn(w, bn)
        }
        Node::Relu(_) => w.write_all(&[2]),
        Node::MaxPool(p) => {
            w.write_all(&[3])?;
            write_u32(w, p.window() as u32)
        }
        Node::AvgPool(p) => {
            w.write_all(&[4])?;
            write_u32(w, p.window() as u32)
        }
        Node::Gap(_) => w.write_all(&[5]),
        Node::Flatten(_) => w.write_all(&[6]),
        Node::Linear(lin) => {
            w.write_all(&[7])?;
            write_tensor(w, &lin.weight.value)?;
            write_tensor(w, &lin.bias.value)
        }
        Node::Dropout(d) => {
            w.write_all(&[9])?;
            w.write_all(&d.probability().to_le_bytes())
        }
        Node::Block(block) => {
            w.write_all(&[8])?;
            let (c1, b1, c2, b2, down, active) = block.checkpoint_parts();
            write_conv(w, c1)?;
            write_bn(w, b1)?;
            write_conv(w, c2)?;
            write_bn(w, b2)?;
            w.write_all(&[down.is_some() as u8])?;
            if let Some((dc, db)) = down {
                write_conv(w, dc)?;
                write_bn(w, db)?;
            }
            w.write_all(&[active as u8])
        }
    }
}

fn read_bool(r: &mut impl Read) -> io::Result<bool> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    match b[0] {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(bad(format!("invalid boolean byte {other}"))),
    }
}

fn read_node<R: Read>(r: &mut CheckReader<R>) -> io::Result<Node> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    Ok(match tag[0] {
        0 => Node::Conv(read_conv(r)?),
        1 => Node::Bn(read_bn(r)?),
        2 => Node::Relu(ReLU::new()),
        3 => Node::MaxPool(MaxPool2d::new(read_u32(r)?.max(1) as usize)),
        4 => Node::AvgPool(AvgPool2d::new(read_u32(r)?.max(1) as usize)),
        5 => Node::Gap(GlobalAvgPool::new()),
        6 => Node::Flatten(Flatten::new()),
        7 => {
            let weight = read_tensor(r)?;
            let bias = read_tensor(r)?;
            Node::Linear(Linear::from_parts(weight, bias).map_err(|e| bad(e.to_string()))?)
        }
        8 => {
            let c1 = read_conv(r)?;
            let b1 = read_bn(r)?;
            let c2 = read_conv(r)?;
            let b2 = read_bn(r)?;
            let down = if read_bool(r)? {
                Some((read_conv(r)?, read_bn(r)?))
            } else {
                None
            };
            let active = read_bool(r)?;
            Node::Block(ResidualBlock::from_checkpoint_parts(
                c1, b1, c2, b2, down, active,
            ))
        }
        9 => {
            let mut buf = [0u8; 4];
            r.read_exact(&mut buf)?;
            let p = f32::from_le_bytes(buf);
            if !(0.0..1.0).contains(&p) {
                return Err(bad(format!("invalid dropout probability {p}")));
            }
            // The RNG stream restarts from a fixed seed; dropout is
            // inference-identity so restored behaviour is unchanged.
            Node::Dropout(Dropout::new(p, &mut hs_tensor::Rng::seed_from(0)))
        }
        other => return Err(bad(format!("unknown node tag {other}"))),
    })
}

fn write_network_versioned(w: impl Write, net: &Network, version: u32) -> io::Result<()> {
    let mut w = CheckWriter::new(w, version >= 2);
    w.write_all(MAGIC)?;
    write_u32(&mut w, version)?;
    write_u64(&mut w, net.len() as u64)?;
    for node in net.iter() {
        write_node(&mut w, node)?;
    }
    if version >= 2 {
        let crc = w.file_crc();
        write_u32(&mut w, crc)?;
    }
    w.flush()
}

/// Writes a network to any `Write` sink (a `&mut` reference works too)
/// in the current (checksummed) format version.
///
/// # Errors
///
/// Propagates I/O errors from the sink.
pub fn write_network(w: impl Write, net: &Network) -> io::Result<()> {
    write_network_versioned(w, net, VERSION)
}

/// Reads a network from any `Read` source (a `&mut` reference works
/// too). Both format versions are accepted: version 2 streams have
/// every per-tensor checksum and the whole-file trailer verified;
/// version 1 streams (written before checksums existed) load with
/// structural validation only.
///
/// # Errors
///
/// Returns `InvalidData` for a corrupt or incompatible stream — bad
/// magic, unsupported version, implausible sizes, or any checksum
/// mismatch — and propagates I/O errors.
pub fn read_network(r: impl Read) -> io::Result<Network> {
    let mut r = CheckReader::new(r);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a headstart checkpoint (bad magic)"));
    }
    let version = read_u32(&mut r)?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(bad(format!("unsupported checkpoint version {version}")));
    }
    if version < 2 {
        r.checksummed = false;
    }
    let count = read_u64(&mut r)?;
    if count > MAX_NODES {
        return Err(bad(format!("implausible node count {count}")));
    }
    let mut net = Network::new();
    for _ in 0..count {
        let node = read_node(&mut r)?;
        net.push(node);
    }
    if version >= 2 {
        let computed = r.file_crc();
        let stored = read_u32(&mut r)?;
        if stored != computed {
            return Err(bad(format!(
                "checkpoint file checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
    }
    Ok(net)
}

/// Serializes a network to bytes in the current format version.
///
/// # Errors
///
/// Never fails for in-memory sinks in practice; the `Result` mirrors
/// [`write_network`].
pub fn to_bytes(net: &Network) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    write_network(&mut buf, net)?;
    Ok(buf)
}

/// Serializes a network in the legacy unchecksummed version-1 layout —
/// a compatibility helper so tests (and tools talking to old readers)
/// can produce streams identical to pre-checksum checkpoints.
///
/// # Errors
///
/// Mirrors [`write_network`].
pub fn to_bytes_v1(net: &Network) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    write_network_versioned(&mut buf, net, 1)?;
    Ok(buf)
}

/// Deserializes a network from bytes (either format version).
///
/// # Errors
///
/// Returns `InvalidData` for corrupt input.
pub fn from_bytes(bytes: &[u8]) -> io::Result<Network> {
    read_network(bytes)
}

/// Saves a network to a file **atomically**: the bytes are written to a
/// sibling temporary file, fsynced, and renamed over `path`, so a crash
/// mid-save never leaves a torn checkpoint behind. Transient IO errors
/// are retried with bounded backoff.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save(net: &Network, path: impl AsRef<Path>) -> io::Result<()> {
    let bytes = to_bytes(net)?;
    hs_telemetry::io::atomic_write_as(path.as_ref(), "checkpoint", &bytes)
}

/// Loads a network from a file.
///
/// # Errors
///
/// Propagates filesystem errors and format errors.
pub fn load(path: impl AsRef<Path>) -> io::Result<Network> {
    read_network(BufReader::new(File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use hs_tensor::Rng;

    fn assert_same_function(a: &mut Network, b: &mut Network, in_c: usize, size: usize) {
        let mut rng = Rng::seed_from(99);
        let x = Tensor::randn(Shape::d4(2, in_c, size, size), &mut rng);
        let ya = a.forward(&x, false).expect("a");
        let yb = b.forward(&x, false).expect("b");
        assert_eq!(ya, yb, "restored network computes a different function");
    }

    #[test]
    fn vgg_round_trips_bit_exactly() {
        let mut rng = Rng::seed_from(0);
        let mut net = models::vgg11(3, 5, 8, 0.25, &mut rng).unwrap();
        // Warm BN so running stats are non-trivial.
        let x = Tensor::randn(Shape::d4(4, 3, 8, 8), &mut rng);
        net.forward(&x, true).unwrap();
        let bytes = to_bytes(&net).unwrap();
        let mut restored = from_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), net.len());
        assert_same_function(&mut net, &mut restored, 3, 8);
    }

    #[test]
    fn resnet_with_inactive_block_round_trips() {
        let mut rng = Rng::seed_from(1);
        let mut net = models::resnet_cifar(2, 3, 4, 0.25, &mut rng).unwrap();
        let blocks = net.block_indices();
        net.set_block_active(blocks[1], false).unwrap();
        let bytes = to_bytes(&net).unwrap();
        let mut restored = from_bytes(&bytes).unwrap();
        // Active flags survive.
        match restored.node(blocks[1]) {
            Node::Block(b) => assert!(!b.is_active()),
            _ => panic!("expected block"),
        }
        assert_same_function(&mut net, &mut restored, 3, 8);
    }

    #[test]
    fn pruned_network_round_trips() {
        let mut rng = Rng::seed_from(2);
        let mut net = models::vgg11(3, 4, 8, 0.25, &mut rng).unwrap();
        let site = crate::surgery::conv_sites(&net)[0];
        crate::surgery::prune_feature_maps(&mut net, site.conv, &[0, 3, 5]).unwrap();
        let bytes = to_bytes(&net).unwrap();
        let mut restored = from_bytes(&bytes).unwrap();
        assert_eq!(restored.conv(site.conv).unwrap().out_channels(), 3);
        assert_same_function(&mut net, &mut restored, 3, 8);
    }

    #[test]
    fn lenet_with_avgpool_round_trips() {
        let mut rng = Rng::seed_from(3);
        let mut net = models::lenet(1, 3, 8, 1.0, &mut rng).unwrap();
        let bytes = to_bytes(&net).unwrap();
        let mut restored = from_bytes(&bytes).unwrap();
        assert_same_function(&mut net, &mut restored, 1, 8);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn written_streams_are_version_2_with_trailer() {
        let mut rng = Rng::seed_from(6);
        let net = models::lenet(1, 2, 8, 1.0, &mut rng).unwrap();
        let bytes = to_bytes(&net).unwrap();
        assert_eq!(&bytes[..4], b"HSCK");
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 2);
        // The trailer is the CRC of everything before it.
        let body = &bytes[..bytes.len() - 4];
        let trailer = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        assert_eq!(trailer, crc32(body));
    }

    #[test]
    fn v1_checkpoints_still_load() {
        let mut rng = Rng::seed_from(7);
        let mut net = models::vgg11(3, 3, 8, 0.25, &mut rng).unwrap();
        let v1 = to_bytes_v1(&net).unwrap();
        assert_eq!(u32::from_le_bytes(v1[4..8].try_into().unwrap()), 1);
        let mut restored = from_bytes(&v1).unwrap();
        assert_same_function(&mut net, &mut restored, 3, 8);
        // v1 is byte-for-byte smaller: no per-tensor CRCs, no trailer.
        let v2 = to_bytes(&net).unwrap();
        assert!(v1.len() < v2.len());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let mut rng = Rng::seed_from(8);
        let net = models::lenet(1, 2, 8, 1.0, &mut rng).unwrap();
        let bytes = to_bytes(&net).unwrap();
        // Sweep the stream with a prime stride so every region (header,
        // tags, dims, weights, CRCs, trailer) gets hit across the run.
        for pos in (0..bytes.len()).step_by(97) {
            let mut broken = bytes.clone();
            broken[pos] ^= 0x40;
            assert!(
                from_bytes(&broken).is_err(),
                "bit flip at byte {pos} went undetected"
            );
        }
        // And explicitly: a flip in the middle of tensor data, which
        // version 1 could never catch.
        let mut broken = bytes.clone();
        let mid = bytes.len() / 2;
        broken[mid] ^= 0x01;
        assert!(
            from_bytes(&broken).is_err(),
            "data flip at {mid} undetected"
        );
    }

    #[test]
    fn every_truncation_is_detected() {
        let mut rng = Rng::seed_from(9);
        let net = models::lenet(1, 2, 8, 1.0, &mut rng).unwrap();
        let bytes = to_bytes(&net).unwrap();
        for len in (0..bytes.len()).step_by(89) {
            assert!(
                from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
        assert!(from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn absurd_sizes_are_rejected_before_allocation() {
        // Hand-built v2 header + conv node whose weight tensor claims
        // outlandish dims. The reader must reject on the size fields,
        // long before allocating or reading data.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"HSCK");
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes()); // one node
        bytes.push(0); // conv tag
        bytes.extend_from_slice(&4u32.to_le_bytes()); // rank 4
        for _ in 0..4 {
            bytes.extend_from_slice(&(u64::MAX / 2).to_le_bytes());
        }
        let err = from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Plausible per-dim sizes whose product overflows usize.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"HSCK");
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&4u32.to_le_bytes());
        for _ in 0..4 {
            bytes.extend_from_slice(&((1u64 << 24) - 1).to_le_bytes());
        }
        let err = from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Implausible rank and node count.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"HSCK");
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&(u64::MAX).to_le_bytes());
        let err = from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicking() {
        assert!(from_bytes(b"").is_err());
        assert!(from_bytes(b"NOPE").is_err());
        assert!(from_bytes(b"HSCK\xff\xff\xff\xff").is_err(), "bad version");
        // Valid header, truncated body.
        let mut rng = Rng::seed_from(4);
        let net = models::vgg11(3, 2, 8, 0.25, &mut rng).unwrap();
        let bytes = to_bytes(&net).unwrap();
        assert!(from_bytes(&bytes[..bytes.len() / 2]).is_err());
        // Flipped node tag.
        let mut broken = bytes.clone();
        broken[16] = 200;
        assert!(from_bytes(&broken).is_err());
    }

    #[test]
    fn degenerate_conv_geometry_is_rejected_on_load() {
        // `Conv2d::new` does not validate, so these nets serialize; their
        // checkpoints must fail to load with a typed error instead of
        // loading and panicking in the first forward pass.
        let mut rng = Rng::seed_from(11);
        for (kernel, stride, what) in [(3, 0, "stride"), (0, 1, "k > 0")] {
            let mut net = Network::new();
            net.push(Node::Conv(Conv2d::new(1, 2, kernel, stride, 1, &mut rng)));
            let bytes = to_bytes(&net).unwrap();
            let err = from_bytes(&bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(what), "{err}");
        }
    }

    #[test]
    fn file_save_load_is_atomic_and_leaves_no_tmp() {
        let mut rng = Rng::seed_from(5);
        let mut net = models::vgg11(3, 2, 8, 0.125, &mut rng).unwrap();
        let dir = std::env::temp_dir().join("hs_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.hsck");
        save(&net, &path).unwrap();
        assert!(!path.with_file_name("model.hsck.tmp").exists());
        let mut restored = load(&path).unwrap();
        assert_same_function(&mut net, &mut restored, 3, 8);
        std::fs::remove_file(&path).ok();
    }
}
