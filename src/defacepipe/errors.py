"""Exception hierarchy shared across the pipeline."""


class DefacepipeError(Exception):
    """Base class for all pipeline errors."""


class NotNifti(DefacepipeError):
    """File is not a NIfTI-1 single file."""


class UnsupportedDatatype(DefacepipeError):
    """NIfTI datatype code outside the supported set (u8, i16, i32, f32, f64)."""


class CorruptFile(DefacepipeError):
    """Voxel payload length does not match the header."""


class UnsupportedDims(DefacepipeError):
    """Volume is not 3D after squeezing trailing singleton dimensions."""


class DatatypeOverflow(DefacepipeError):
    """A voxel value is unrepresentable in the original integer datatype."""


class IoError(DefacepipeError):
    """Generic file read/write failure."""


class FileError(DefacepipeError):
    """A referenced auxiliary file could not be used."""


class SingularTransform(DefacepipeError):
    """Affine transform has a (near-)singular linear part."""


class AmbiguousOrientation(DefacepipeError):
    """Two voxel axes map to the same dominant world axis."""


class GridMismatch(DefacepipeError):
    """Two images do not share the same voxel grid."""


class EmptyMask(DefacepipeError):
    """Binary mask has no foreground voxels where some are required."""


class NoOverlap(DefacepipeError):
    """No sampled voxel landed inside the other image's bounds."""


class DegenerateHull(DefacepipeError):
    """Convex hull undefined: fewer than 3 distinct points or all collinear."""


class BothEmpty(DefacepipeError):
    """Dice undefined: both masks are empty."""


class TemplatePackError(DefacepipeError):
    """Template pack failed validation (keep-mask excludes template tissue)."""


class StageError(DefacepipeError):
    """Wraps an error raised by a specific pipeline stage (1-9)."""

    def __init__(self, stage: int, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage}: {cause}")

    def __reduce__(self):
        # The default rebuilds from self.args, the message alone; a process
        # pool sends a failed file's error back to its parent this way.
        return type(self), (self.stage, self.cause)
