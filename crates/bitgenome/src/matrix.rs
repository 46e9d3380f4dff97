//! Dense (unpacked) genotype matrices and phenotype vectors.
//!
//! These are the canonical in-memory form produced by data generators and
//! readers; all bit-packed layouts are encoded from them. One byte per
//! genotype keeps encoding simple and testable — the packed layouts are
//! what the detection kernels actually touch.

use crate::word::{pack_low_bits, Word};
use std::fmt;

/// Why dense data was refused by [`GenotypeMatrix::try_from_raw`] or
/// [`Phenotype::try_from_labels`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidDense(&'static str);

impl fmt::Display for InvalidDense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for InvalidDense {}

/// Largest byte of `values`. A fold with no early exit, so the one
/// validation pass over a dataset runs at vector width.
fn max_byte(values: &[u8]) -> u8 {
    values.iter().fold(0, |max, &v| max.max(v))
}

/// A dense `M × N` genotype matrix: `M` SNPs (rows) by `N` samples
/// (columns), each entry in `{0, 1, 2}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenotypeMatrix {
    m: usize,
    n: usize,
    data: Vec<u8>,
}

impl GenotypeMatrix {
    /// Create a matrix from row-major genotype data that came from
    /// outside the program; this is the only place genotype values are
    /// checked.
    ///
    /// # Errors
    /// Refuses `data.len() != m * n` (or an `m * n` that overflows) and
    /// any genotype outside `{0,1,2}`.
    pub fn try_from_raw(m: usize, n: usize, data: Vec<u8>) -> Result<Self, InvalidDense> {
        if m.checked_mul(n) != Some(data.len()) {
            return Err(InvalidDense("genotype data must be M*N"));
        }
        if max_byte(&data) > 2 {
            return Err(InvalidDense("genotype values must be 0, 1 or 2"));
        }
        Ok(Self { m, n, data })
    }

    /// [`GenotypeMatrix::try_from_raw`] for data the program built itself.
    ///
    /// # Panics
    /// Panics if `data.len() != m * n` or any genotype is outside `{0,1,2}`.
    pub fn from_raw(m: usize, n: usize, data: Vec<u8>) -> Self {
        Self::try_from_raw(m, n, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// An all-zero (homozygous major) matrix.
    pub fn zeros(m: usize, n: usize) -> Self {
        Self {
            m,
            n,
            data: vec![0; m * n],
        }
    }

    /// Number of SNPs (rows).
    #[inline]
    pub fn num_snps(&self) -> usize {
        self.m
    }

    /// Number of samples (columns).
    #[inline]
    pub fn num_samples(&self) -> usize {
        self.n
    }

    /// Genotype of `snp` for `sample`.
    #[inline]
    pub fn get(&self, snp: usize, sample: usize) -> u8 {
        debug_assert!(snp < self.m && sample < self.n);
        self.data[snp * self.n + sample]
    }

    /// Set the genotype of `snp` for `sample`.
    ///
    /// # Panics
    /// Panics if `g > 2` or indices are out of range.
    #[inline]
    pub fn set(&mut self, snp: usize, sample: usize, g: u8) {
        assert!(g <= 2, "genotype values must be 0, 1 or 2");
        assert!(snp < self.m && sample < self.n, "index out of range");
        self.data[snp * self.n + sample] = g;
    }

    /// Row view: all genotypes of one SNP.
    #[inline]
    pub fn snp(&self, snp: usize) -> &[u8] {
        &self.data[snp * self.n..(snp + 1) * self.n]
    }

    /// Raw row-major genotype bytes.
    #[inline]
    pub fn raw(&self) -> &[u8] {
        &self.data
    }

    /// Per-genotype counts `[n0, n1, n2]` for one SNP.
    pub fn genotype_counts(&self, snp: usize) -> [usize; 3] {
        let mut c = [0usize; 3];
        for &g in self.snp(snp) {
            c[g as usize] += 1;
        }
        c
    }

    /// Restrict the matrix to the samples for which `keep` is true.
    pub fn select_samples(&self, keep: &[bool]) -> GenotypeMatrix {
        assert_eq!(keep.len(), self.n);
        let kept: Vec<usize> = (0..self.n).filter(|&j| keep[j]).collect();
        let mut data = Vec::with_capacity(self.m * kept.len());
        for i in 0..self.m {
            let row = self.snp(i);
            data.extend(kept.iter().map(|&j| row[j]));
        }
        GenotypeMatrix {
            m: self.m,
            n: kept.len(),
            data,
        }
    }
}

/// Case/control labels for the samples of a [`GenotypeMatrix`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phenotype {
    labels: Vec<u8>,
    n_cases: usize,
}

impl Phenotype {
    /// Create from 0 (control) / 1 (case) labels that came from outside
    /// the program.
    ///
    /// # Errors
    /// Refuses any label outside `{0, 1}`.
    pub fn try_from_labels(labels: Vec<u8>) -> Result<Self, InvalidDense> {
        if max_byte(&labels) > 1 {
            return Err(InvalidDense("phenotype must be 0 or 1"));
        }
        let n_cases = labels.iter().map(|&p| usize::from(p)).sum();
        Ok(Self { labels, n_cases })
    }

    /// [`Phenotype::try_from_labels`] for labels the program built itself.
    ///
    /// # Panics
    /// Panics if any label is outside `{0, 1}`.
    pub fn from_labels(labels: Vec<u8>) -> Self {
        Self::try_from_labels(labels).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when there are no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of case samples.
    #[inline]
    pub fn num_cases(&self) -> usize {
        self.n_cases
    }

    /// Number of control samples.
    #[inline]
    pub fn num_controls(&self) -> usize {
        self.labels.len() - self.n_cases
    }

    /// Label of one sample (0 = control, 1 = case).
    #[inline]
    pub fn get(&self, sample: usize) -> u8 {
        self.labels[sample]
    }

    /// Raw label slice.
    #[inline]
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// Pack the labels into a bit vector (bit set ⇒ case), zero-padded to
    /// a whole number of [`Word`]s — the phenotype format of approach V1.
    pub fn to_bits(&self) -> Vec<Word> {
        pack_low_bits(&self.labels)
    }

    /// Boolean mask selecting the case samples.
    pub fn case_mask(&self) -> Vec<bool> {
        self.labels.iter().map(|&p| p == 1).collect()
    }

    /// Boolean mask selecting the control samples.
    pub fn control_mask(&self) -> Vec<bool> {
        self.labels.iter().map(|&p| p == 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GenotypeMatrix {
        // 2 SNPs x 3 samples
        GenotypeMatrix::from_raw(2, 3, vec![0, 1, 2, 2, 0, 1])
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = GenotypeMatrix::zeros(3, 4);
        m.set(1, 2, 2);
        m.set(2, 3, 1);
        assert_eq!(m.get(1, 2), 2);
        assert_eq!(m.get(2, 3), 1);
        assert_eq!(m.get(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "genotype values")]
    fn rejects_invalid_genotype() {
        GenotypeMatrix::from_raw(1, 1, vec![3]);
    }

    #[test]
    fn fallible_constructors_refuse_instead_of_panicking() {
        assert!(GenotypeMatrix::try_from_raw(2, 3, vec![0; 5]).is_err());
        assert!(GenotypeMatrix::try_from_raw(usize::MAX, 2, vec![]).is_err());
        assert!(GenotypeMatrix::try_from_raw(1, 2, vec![0, 3]).is_err());
        assert!(Phenotype::try_from_labels(vec![0, 2]).is_err());
        assert_eq!(GenotypeMatrix::try_from_raw(2, 3, tiny().data), Ok(tiny()));
    }

    #[test]
    fn counts_per_snp() {
        let m = tiny();
        assert_eq!(m.genotype_counts(0), [1, 1, 1]);
        assert_eq!(m.genotype_counts(1), [1, 1, 1]);
    }

    #[test]
    fn select_samples_keeps_order() {
        let m = tiny();
        let sub = m.select_samples(&[true, false, true]);
        assert_eq!(sub.num_samples(), 2);
        assert_eq!(sub.snp(0), &[0, 2]);
        assert_eq!(sub.snp(1), &[2, 1]);
    }

    #[test]
    fn phenotype_counts_and_bits() {
        let p = Phenotype::from_labels(vec![0, 1, 1, 0, 1]);
        assert_eq!(p.num_cases(), 3);
        assert_eq!(p.num_controls(), 2);
        let bits = p.to_bits();
        assert_eq!(bits.len(), 1);
        assert_eq!(bits[0], 0b10110);
    }

    #[test]
    fn phenotype_masks_partition() {
        let p = Phenotype::from_labels(vec![0, 1, 0, 1]);
        let cm = p.case_mask();
        let km = p.control_mask();
        for i in 0..4 {
            assert_ne!(cm[i], km[i]);
        }
    }
}
