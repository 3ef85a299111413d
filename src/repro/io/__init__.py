"""Problem/schedule persistence (JSON + DSL) and wire schemas."""

from .chart_json import chart_to_dict, save_chart
from .dsl import load_problem_dsl, parse_problem
from .json_io import (load_problem, load_schedule, problem_from_dict,
                      problem_to_dict, save_problem, save_schedule,
                      schedule_from_dict, schedule_to_dict)
from .requests import (ERROR_CODES, RequestError, SolvedPoint,
                       SolveRequest, error_envelope, response_envelope,
                       solve_request_from_dict, solve_request_to_dict)
from .shards import (ARTIFACT_FORMAT, ARTIFACT_VERSION,
                     MANIFEST_FORMAT, MANIFEST_VERSION, ShardArtifact,
                     artifact_from_dict, artifact_to_dict,
                     load_artifact, load_manifest, manifest_from_dict,
                     manifest_to_dict, options_from_dict,
                     options_to_dict, save_artifact, save_manifest)

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "ERROR_CODES",
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "RequestError",
    "ShardArtifact",
    "SolveRequest",
    "SolvedPoint",
    "artifact_from_dict",
    "artifact_to_dict",
    "chart_to_dict",
    "error_envelope",
    "load_artifact",
    "load_manifest",
    "load_problem",
    "load_problem_dsl",
    "load_schedule",
    "manifest_from_dict",
    "manifest_to_dict",
    "options_from_dict",
    "options_to_dict",
    "parse_problem",
    "problem_from_dict",
    "problem_to_dict",
    "response_envelope",
    "save_artifact",
    "save_chart",
    "save_manifest",
    "save_problem",
    "save_schedule",
    "schedule_from_dict",
    "schedule_to_dict",
    "solve_request_from_dict",
    "solve_request_to_dict",
]
