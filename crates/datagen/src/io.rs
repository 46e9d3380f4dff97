//! Dataset serialisation.
//!
//! Two formats are supported:
//!
//! * **Text** — the layout of the paper's Fig. 1 and of the MPI3SNP sample
//!   files: one row per SNP with comma-separated genotypes, and a final
//!   row holding the phenotype. Human-readable, diff-friendly.
//! * **Binary** — a compact little-endian format (`EPI3` magic) for large
//!   benchmark inputs: header (`M`, `N`) followed by genotype bytes and
//!   phenotype bytes.

use crate::generator::Dataset;
use bitgenome::{GenotypeMatrix, Phenotype};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"EPI3";

/// Magic, then `M` and `N` as little-endian `u64`.
const HEADER_LEN: usize = 4 + 8 + 8;

fn invalid_data<E: Into<Box<dyn std::error::Error + Send + Sync>>>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Write a dataset in text format.
pub fn write_text<W: Write>(
    w: W,
    genotypes: &GenotypeMatrix,
    phenotype: &Phenotype,
) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    let n = genotypes.num_samples();
    assert_eq!(n, phenotype.len());
    let mut line = String::with_capacity(2 * n);
    for snp in 0..genotypes.num_snps() {
        line.clear();
        for (j, &g) in genotypes.snp(snp).iter().enumerate() {
            if j > 0 {
                line.push(',');
            }
            line.push((b'0' + g) as char);
        }
        writeln!(w, "{line}")?;
    }
    line.clear();
    for (j, &p) in phenotype.labels().iter().enumerate() {
        if j > 0 {
            line.push(',');
        }
        line.push((b'0' + p) as char);
    }
    writeln!(w, "{line}")?;
    w.flush()
}

/// Read a dataset in text format (last row = phenotype).
pub fn read_text<R: Read>(r: R) -> io::Result<(GenotypeMatrix, Phenotype)> {
    let reader = BufReader::new(r);
    let mut rows: Vec<Vec<u8>> = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let row: Result<Vec<u8>, _> = trimmed
            .split(',')
            .map(|tok| {
                tok.trim()
                    .parse::<u8>()
                    .map_err(|e| invalid_data(format!("bad value {tok:?}: {e}")))
            })
            .collect();
        rows.push(row?);
    }
    if rows.len() < 2 {
        return Err(invalid_data(
            "need at least one SNP row and a phenotype row",
        ));
    }
    let n = rows[0].len();
    if rows.iter().any(|r| r.len() != n) {
        return Err(invalid_data(
            "ragged rows: all rows must have the same sample count",
        ));
    }
    let phen_row = rows.pop().expect("at least two rows");
    let m = rows.len();
    Ok((
        GenotypeMatrix::try_from_raw(m, n, rows.concat()).map_err(invalid_data)?,
        Phenotype::try_from_labels(phen_row).map_err(invalid_data)?,
    ))
}

/// Write a dataset in the compact binary format.
pub fn write_binary<W: Write>(
    w: W,
    genotypes: &GenotypeMatrix,
    phenotype: &Phenotype,
) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC)?;
    w.write_all(&(genotypes.num_snps() as u64).to_le_bytes())?;
    w.write_all(&(genotypes.num_samples() as u64).to_le_bytes())?;
    w.write_all(genotypes.raw())?;
    w.write_all(phenotype.labels())?;
    w.flush()
}

/// The sizes a binary header declares. Nothing is allocated from them
/// until [`from_payload`] has compared them with the bytes present.
struct Shape {
    m: usize,
    n: usize,
    /// `m * n`, known not to overflow — nor does `m * n + n`.
    genotypes: usize,
}

impl Shape {
    /// Parse the `M` and `N` fields that follow the magic.
    fn parse(fields: &[u8]) -> io::Result<Self> {
        let Some(fields) = fields.get(..HEADER_LEN - MAGIC.len()) else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated EPI3 header",
            ));
        };
        let field = |at: usize| {
            let bytes = fields[at..at + 8].try_into().expect("8-byte header field");
            usize::try_from(u64::from_le_bytes(bytes)).ok()
        };
        let checked = || {
            let (m, n) = (field(0)?, field(8)?);
            let genotypes = m.checked_mul(n)?;
            genotypes.checked_add(n)?;
            Some(Self { m, n, genotypes })
        };
        checked().ok_or_else(|| invalid_data("EPI3 header declares an impossible size"))
    }

    fn payload_len(&self) -> usize {
        self.genotypes + self.n
    }
}

/// Split a payload into genotypes and labels and validate both, once.
/// Bytes past the declared payload are ignored.
fn from_payload(shape: Shape, mut payload: Vec<u8>) -> io::Result<(GenotypeMatrix, Phenotype)> {
    if payload.len() < shape.payload_len() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "EPI3 header declares {} x {} genotypes but only {} payload bytes follow",
                shape.m,
                shape.n,
                payload.len()
            ),
        ));
    }
    payload.truncate(shape.payload_len());
    let labels = payload.split_off(shape.genotypes);
    Ok((
        GenotypeMatrix::try_from_raw(shape.m, shape.n, payload).map_err(invalid_data)?,
        Phenotype::try_from_labels(labels).map_err(invalid_data)?,
    ))
}

/// Read a dataset in the compact binary format. Reads the header and the
/// payload it declares, no further; memory grows with the bytes that
/// arrive, not with what the header claims.
pub fn read_binary<R: Read>(mut r: R) -> io::Result<(GenotypeMatrix, Phenotype)> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header[..MAGIC.len()])?;
    if !header.starts_with(MAGIC) {
        return Err(invalid_data("not an EPI3 binary dataset"));
    }
    r.read_exact(&mut header[MAGIC.len()..])?;
    let shape = Shape::parse(&header[MAGIC.len()..])?;
    let mut payload = Vec::new();
    r.take(shape.payload_len() as u64)
        .read_to_end(&mut payload)?;
    from_payload(shape, payload)
}

/// Convenience: write a [`Dataset`] as text to `path`.
pub fn save_text<P: AsRef<Path>>(path: P, d: &Dataset) -> io::Result<()> {
    write_text(std::fs::File::create(path)?, &d.genotypes, &d.phenotype)
}

/// Convenience: write a [`Dataset`] as binary to `path`.
pub fn save_binary<P: AsRef<Path>>(path: P, d: &Dataset) -> io::Result<()> {
    write_binary(std::fs::File::create(path)?, &d.genotypes, &d.phenotype)
}

/// Convenience: load either format from `path`, sniffing the magic bytes.
pub fn load<P: AsRef<Path>>(path: P) -> io::Result<(GenotypeMatrix, Phenotype)> {
    let mut bytes = std::fs::read(path)?;
    if bytes.starts_with(MAGIC) {
        let shape = Shape::parse(&bytes[MAGIC.len()..])?;
        bytes.drain(..HEADER_LEN);
        from_payload(shape, bytes)
    } else {
        read_text(&bytes[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::DatasetSpec;

    fn demo() -> (GenotypeMatrix, Phenotype) {
        let d = DatasetSpec::noise(8, 37, 5).generate();
        (d.genotypes, d.phenotype)
    }

    #[test]
    fn text_roundtrip() {
        let (g, p) = demo();
        let mut buf = Vec::new();
        write_text(&mut buf, &g, &p).unwrap();
        let (g2, p2) = read_text(&buf[..]).unwrap();
        assert_eq!(g, g2);
        assert_eq!(p, p2);
    }

    #[test]
    fn binary_roundtrip() {
        let (g, p) = demo();
        let mut buf = Vec::new();
        write_binary(&mut buf, &g, &p).unwrap();
        let (g2, p2) = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
        assert_eq!(p, p2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOPE............"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// An `EPI3` header declaring `m` x `n`, followed by `payload`.
    fn binary_file(m: u64, n: u64, payload: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend(m.to_le_bytes());
        bytes.extend(n.to_le_bytes());
        bytes.extend(payload);
        bytes
    }

    /// Both entry points on the same bytes: the reader and the file loader.
    fn read_both(tag: &str, bytes: &[u8]) -> [io::Result<(GenotypeMatrix, Phenotype)>; 2] {
        let path = std::env::temp_dir().join(format!("epi3_io_{tag}_{}.epi3", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let loaded = load(&path);
        let _ = std::fs::remove_file(path);
        [read_binary(bytes), loaded]
    }

    #[test]
    fn binary_rejects_headers_whose_size_overflows() {
        // M*N wraps to 0 in 64 bits; M*N fits but M*N + N does not
        for (tag, m, n) in [("wrap", 1 << 32, 1 << 32), ("add", 1, u64::MAX)] {
            for r in read_both(tag, &binary_file(m, n, &[])) {
                assert_eq!(r.unwrap_err().kind(), io::ErrorKind::InvalidData);
            }
        }
    }

    #[test]
    fn binary_rejects_oversized_header_without_allocating_it() {
        // the 20-byte file that used to abort the process: 1 x 2^62
        for r in read_both("oversized", &binary_file(1, 1 << 62, &[])) {
            assert_eq!(r.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn binary_rejects_truncated_header_and_payload() {
        let (g, p) = demo();
        let mut whole = Vec::new();
        write_binary(&mut whole, &g, &p).unwrap();
        for cut in [MAGIC.len(), HEADER_LEN - 1, HEADER_LEN, whole.len() - 1] {
            for r in read_both("truncated", &whole[..cut]) {
                assert_eq!(
                    r.unwrap_err().kind(),
                    io::ErrorKind::UnexpectedEof,
                    "cut {cut}"
                );
            }
        }
    }

    #[test]
    fn binary_rejects_bad_payload_values() {
        for payload in [[0, 3, 0, 1], [0, 1, 0, 2]] {
            for r in read_both("values", &binary_file(1, 2, &payload)) {
                assert_eq!(r.unwrap_err().kind(), io::ErrorKind::InvalidData);
            }
        }
    }

    #[test]
    fn text_rejects_ragged_rows() {
        let err = read_text(&b"0,1,2\n0,1\n0,0,1\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn text_rejects_bad_genotype() {
        let err = read_text(&b"0,3\n0,1\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn text_rejects_bad_phenotype() {
        let err = read_text(&b"0,1\n0,2\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn sniffing_load_roundtrips_both_formats() {
        let d = DatasetSpec::noise(4, 10, 1).generate();
        let dir = std::env::temp_dir();
        let tp = dir.join("epi3_test_text.csv");
        let bp = dir.join("epi3_test_bin.epi3");
        save_text(&tp, &d).unwrap();
        save_binary(&bp, &d).unwrap();
        let (gt, _) = load(&tp).unwrap();
        let (gb, _) = load(&bp).unwrap();
        assert_eq!(gt, d.genotypes);
        assert_eq!(gb, d.genotypes);
        let _ = std::fs::remove_file(tp);
        let _ = std::fs::remove_file(bp);
    }
}
