#ifndef TSPN_NN_SERIALIZE_H_
#define TSPN_NN_SERIALIZE_H_

#include <iosfwd>
#include <vector>

#include "nn/tensor.h"

namespace tspn::nn {

/// Writes parameter tensors (shapes + float32 payloads) to a binary stream.
/// Format: magic, count, then per-tensor rank/dims/data.
void SaveParameters(const std::vector<Tensor>& parameters, std::ostream& out);

/// Loads values into existing parameter tensors. Shapes must match exactly.
/// Returns false on format or shape mismatch. NOTE: tensors already read
/// are overwritten before a later mismatch is detected; use
/// LoadParametersAtomic when the targets are live model weights.
bool LoadParameters(std::vector<Tensor>& parameters, std::istream& in);

/// Reads a parameter payload into freshly allocated tensors shaped like
/// `like`, without touching `like` itself. False on format/shape mismatch
/// or truncation (`staged` is then unspecified). Lets callers validate a
/// whole payload before mutating any live state.
bool LoadParametersStaged(const std::vector<Tensor>& like, std::istream& in,
                          std::vector<Tensor>* staged);

/// All-or-nothing variant of LoadParameters: stages the payload first and
/// copies into `parameters` only after the whole stream validated, so a
/// corrupted or truncated payload leaves the live weights untouched.
bool LoadParametersAtomic(std::vector<Tensor>& parameters, std::istream& in);

}  // namespace tspn::nn

#endif  // TSPN_NN_SERIALIZE_H_
