"""Suffix trie/tree indexes with parallel pattern-matching queries and
work/span step accounting."""

from .ancestry import AncestryIndex, build_ancestry, level_ancestor_sl
from .halving import (PairDict, PairDictError, build_tree_halving_dict,
                      build_trie_halving_dict, probe)
from .harness import (ALGORITHMS, CorpusCase, generate_corpus, oracle_scan,
                      run_case, run_corpus)
from .interleaved import (LayeredIndex, build_layer, build_layer_dict,
                          build_layered_index, deinterleave_paths,
                          par_query_interleaved,
                          par_query_interleaved_threaded)
from .ledger import LaneCounters, StepLedger
from .query import EMPTY, QueryResult, seq_query
from .serial import (Container, ContainerError, build_container,
                     dump_container, load_container, load_file, save_file)
from .suffixindex import (ROOT, NodeId, SuffixIndex, build_suffix_tree,
                          build_suffix_trie, descend, navigate, occurrences,
                          verify_against_text)
from .textmodel import (Pattern, Text, deinterleave2, deinterleaved_len,
                        delimiter, interleave, is_delimiter, make_text)
from .treeparallel import par_query_tree2, par_query_tree2_threaded
from .trieparallel import (ParameterError, SubqueryAssignment,
                           assign_subqueries, par_query_trie,
                           par_query_trie_threaded)

__version__ = "0.1.0"
